"""Tests for consoles and the migrating HTTP server."""

import pytest

from repro.console import Console, SnipeHttpServer, WebClient, WebError
from repro.core import SnipeEnvironment
from repro.daemon import TaskSpec, TaskState


def console_env(n=4):
    env = SnipeEnvironment.lan_site(n_hosts=n)

    @env.program("idler")
    def idler(ctx, duration=30.0):
        yield ctx.sleep(duration)
        return "done"

    return env


def test_console_lists_hosts_and_info():
    env = console_env()
    console = Console(env.topology.hosts["h3"], env.rc_client("h3"))
    hosts = env.run(until=console.hosts())
    assert hosts == ["h0", "h1", "h2", "h3"]
    info = env.run(until=console.host_info("h1"))
    assert info["daemon"] == "snipe://h1/daemon"


def test_console_spawn_inspect_kill():
    env = console_env()
    console = Console(env.topology.hosts["h3"], env.rc_client("h3"))
    urn = env.run(until=console.spawn("h1", TaskSpec(program="idler")))
    assert urn.startswith("urn:snipe:proc:idler")
    env.settle(1.0)
    tasks = env.run(until=console.tasks_on("h1"))
    assert urn in tasks
    state = env.run(until=console.process_state(urn))
    assert state["state"] == TaskState.RUNNING
    assert env.run(until=console.kill(urn)) is True
    env.settle(1.0)
    assert env.daemons["h1"].tasks[urn].state == TaskState.KILLED
    assert any("spawned" in line for line in console.transcript)


def test_console_signals_a_process_by_urn():
    """§3.3's signal path from a console: the URN resolves through the
    catalog to the supervising daemon, which queues the signal."""
    env = console_env()

    @env.program("signal-echo")
    def signal_echo(ctx):
        sig = yield ctx.next_signal()
        return f"got:{sig}"

    console = Console(env.topology.hosts["h3"], env.rc_client("h3"))
    urn = env.run(until=console.spawn("h1", TaskSpec(program="signal-echo")))
    env.settle(1.0)
    assert env.run(until=console.signal(urn, "SIGUSR1")) is True
    env.settle(1.0)
    assert env.daemons["h1"].tasks[urn].exit_value == "got:SIGUSR1"
    assert env.run(until=console.signal(urn, "SIGUSR1")) is False  # exited


def test_console_group_state():
    env = console_env()
    console = Console(env.topology.hosts["h3"], env.rc_client("h3"))
    urns = [
        env.run(until=console.spawn(f"h{i}", TaskSpec(program="idler", params={"duration": 2.0})))
        for i in (0, 1)
    ]
    env.settle(0.5)
    states = env.run(until=console.group_state("urn:snipe:mcast:g", urns))
    assert all(s == TaskState.RUNNING for s in states.values())
    env.settle(5.0)
    states = env.run(until=console.group_state("urn:snipe:mcast:g", urns))
    assert all(s == TaskState.EXITED for s in states.values())


def test_http_server_serves_registered_url():
    env = console_env()
    server = SnipeHttpServer(
        env.topology.hosts["h1"], env.rc_client("h1"),
        "http://results.snipe.org/", {"/": "<html>index</html>", "/data": "42"},
    )
    env.run(until=server.register())
    client = WebClient(env.topology.hosts["h2"], env.rc_client("h2"))
    assert env.run(until=client.get("http://results.snipe.org/")) == "<html>index</html>"
    assert env.run(until=client.get("http://results.snipe.org/", "/data")) == "42"
    assert server.hits == 2


def test_http_404_and_unregistered():
    env = console_env()
    server = SnipeHttpServer(
        env.topology.hosts["h1"], env.rc_client("h1"), "http://x.org/", {"/": "hi"}
    )
    env.run(until=server.register())
    client = WebClient(env.topology.hosts["h2"], env.rc_client("h2"))
    with pytest.raises(WebError, match="404"):
        env.run(until=client.get("http://x.org/", "/missing"))
    with pytest.raises(WebError, match="not registered"):
        env.run(until=client.get("http://never.org/"))


def test_http_server_found_after_migration():
    """§3.7: the browser finds the server even though it moved hosts."""
    env = console_env()
    server = SnipeHttpServer(
        env.topology.hosts["h1"], env.rc_client("h1"),
        "http://mobile.org/", {"/": "v1"},
    )
    env.run(until=server.register())
    client = WebClient(env.topology.hosts["h3"], env.rc_client("h3"))
    assert env.run(until=client.get("http://mobile.org/")) == "v1"  # caches h1
    env.run(until=server.move_to(env.topology.hosts["h2"], env.rc_client("h2")))
    server.add_page("/", "v2")  # pages travel with the server object
    # The client's cached location is stale; it must re-resolve.
    body = env.run(until=client.get("http://mobile.org/"))
    assert body in ("v1", "v2")
    assert server.host.name == "h2"


def test_file_server_contents_exported_over_http():
    """§5.9: stored files become web-accessible resources."""
    from repro.console import export_files_http

    env = SnipeEnvironment.lan_site(n_hosts=3, n_fs=1)
    fc = env.file_client("h2")

    def store(sim):
        yield fc.write("reports/summary.txt", "quarterly numbers", 2_000)

    env.run(until=env.sim.process(store(env.sim)))
    httpd = export_files_http(
        env.file_servers["h0"], env.rc_client("h0"), "http://files.snipe.org/"
    )
    env.run(until=httpd.register())
    browser = WebClient(env.topology.hosts["h1"], env.rc_client("h1"))
    body = env.run(until=browser.get("http://files.snipe.org/", "/reports/summary.txt"))
    assert body == "quarterly numbers"
    with pytest.raises(WebError, match="404"):
        env.run(until=browser.get("http://files.snipe.org/", "/no/such/file"))


def test_console_enumerates_group_members_from_metadata():
    """§3.7: 'The state of each process in a process group is maintained
    as metadata associated with that process group.'"""
    env = console_env(n=4)

    @env.program("member-task")
    def member_task(ctx):
        yield ctx.join_group("workers")
        yield ctx.sleep(30.0)
        return "ok"

    urns = [env.spawn("member-task", on=f"h{i}").urn for i in range(3)]
    env.settle(3.0)
    console = Console(env.topology.hosts["h3"], env.rc_client("h3"))
    members = env.run(until=console.group_members("workers"))
    assert sorted(members) == sorted(urns)
    # And the console resolves every member's state from the catalog alone.
    states = env.run(until=console.group_state("urn:snipe:mcast:workers"))
    assert set(states) == set(urns)
    assert all(s == TaskState.RUNNING for s in states.values())
