#!/usr/bin/env python3
"""Indexing the worldwide digital library — the paper's first motivating
application (§1):

    "Indexing and cataloging the worldwide digital library, which will
    have hundreds of millions of documents, produced at millions of
    different locations."

Scaled to simulator size, but structurally faithful:

* documents live on replicated file servers at three geographically
  separate sites (LANs joined by a WAN), named by LIFNs;
* indexing is done by signed **mobile code** (SnipeScript) shipped to a
  playground at each site — the computation moves to the data, under
  quota, after signature verification;
* the per-site word-count indexes come back as SNIPE messages, are
  merged, stored via the file service, and registered in the catalog;
* a forged indexing agent is rejected by every playground.

Run:  python examples/digital_library.py
"""

import random

from repro.core import SnipeEnvironment
from repro.daemon import TaskSpec
from repro.net.media import ETHERNET_100, WAN_T3
from repro.playground import Playground, sign_mobile_code
from repro.security import TrustPolicy, generate_keypair

SIGNER = "urn:snipe:user:librarian"

#: The indexing agent, written in SnipeScript: counts "words" (modelled
#: as integers) in the documents the site handed it, then emits the
#: per-site histogram. Runs fully confined — its only rights are emit.
INDEXER_SOURCE = """
var histogram = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
var d = 0;
while (d < len(docs)) {
    var words = docs[d];
    var w = 0;
    while (w < len(words)) {
        var bucket = words[w] % 10;
        histogram[bucket] = histogram[bucket] + 1;
        w = w + 1;
    }
    d = d + 1;
}
emit histogram;
emit len(docs);
"""


def build_site() -> SnipeEnvironment:
    """Three library sites, each its own LAN, joined by a WAN backbone."""
    env = SnipeEnvironment(seed=11)
    wan = env.add_segment("wan", WAN_T3)
    for s in range(3):
        env.add_segment(f"site{s}", ETHERNET_100)
        for i in range(3):
            host = env.add_host(
                f"s{s}h{i}", segments=[f"site{s}"], forwarding=(i == 0)
            )
            if i == 0:
                env.topology.connect(host, env.topology.segments["wan"])
    env.add_rc_servers(["s0h0", "s1h0", "s2h0"])
    for name in list(env.topology.hosts):
        env.boot_daemon(name)
    # A file server (with replication) at every site.
    for s in range(3):
        env.add_file_server(f"s{s}h1")
    env.settle(2.0)
    return env


def main() -> None:
    env = build_site()
    keys = generate_keypair(random.Random(1234))
    trust = TrustPolicy()
    trust.pin_key(SIGNER, keys.public)
    trust.trust(SIGNER, "sign-code")
    # Playgrounds everywhere; the librarian's code gets no special rights
    # beyond running (it only emits results).
    for daemon in env.daemons.values():
        Playground(daemon, trust, grants={SIGNER: set()})
    env.settle(1.0)

    # ----------------------------------------------------- ingest the collection
    rng = random.Random(99)
    docs_by_site = {
        s: [[rng.randrange(1000) for _ in range(40)] for _ in range(12)]
        for s in range(3)
    }
    ingest_client = env.file_client("s0h2")

    def ingest():
        for s, docs in docs_by_site.items():
            yield ingest_client.write(
                f"library/site{s}/shard.docs", docs, 50_000, server=(f"s{s}h1", 2100)
            )

    env.run(until=env.sim.process(ingest()))
    print(f"ingested {sum(len(d) for d in docs_by_site.values())} documents "
          f"across 3 sites")

    # ------------------------------------------- ship the signed indexing agent
    bundle = sign_mobile_code(INDEXER_SOURCE, SIGNER, keys, rights=())

    def publish_code():
        yield ingest_client.write("library/indexer.code", bundle, 4_000)

    env.run(until=env.sim.process(publish_code()))

    # Each site's agent is the indexer with that site's shard bound as
    # its `docs` global — the code ships to the data, not the reverse.
    def inline_code(site):
        docs = docs_by_site[site]
        source = f"var docs = {docs};\n" + INDEXER_SOURCE
        return sign_mobile_code(source, SIGNER, keys, rights=())

    def publish_site_agents():
        for s in range(3):
            yield ingest_client.write(f"library/indexer-site{s}.code", inline_code(s), 8_000)

    env.run(until=env.sim.process(publish_site_agents()))

    infos = []
    for s in range(3):
        infos.append(
            env.daemons[f"s{s}h2"].spawn(
                TaskSpec(program="mobile",
                         mobile_code=f"library/indexer-site{s}.code",
                         cpu_quota=10.0)
            )
        )
    env.run(until=env.sim.now + 120.0)

    merged = [0] * 10
    total_docs = 0
    for s, info in enumerate(infos):
        assert info.state == "exited", f"site {s} agent: {info.state} {info.error}"
        histogram, n_docs = info.exit_value
        total_docs += n_docs
        merged = [a + b for a, b in zip(merged, histogram)]
        print(f"site {s}: indexed {n_docs} docs, histogram {histogram}")
    print(f"merged index over {total_docs} documents: {merged}")

    # --------------------------------------------------- publish the merged index
    def publish_index():
        yield ingest_client.write("library/index.merged", merged, 10_000)
        yield env.rc_client("s0h2").update(
            "urn:snipe:svc:library-index",
            {"documents": total_docs, "lifn": "library/index.merged"},
        )

    env.run(until=env.sim.process(publish_index()))

    # ------------------------------------------------------- forged agent rejected
    mallory = generate_keypair(random.Random(666))
    forged = sign_mobile_code("emit 666;", SIGNER, mallory, ())

    def publish_forged():
        yield ingest_client.write("library/evil.code", forged, 2_000)

    env.run(until=env.sim.process(publish_forged()))
    evil = env.daemons["s1h2"].spawn(
        TaskSpec(program="mobile", mobile_code="library/evil.code")
    )
    env.run(until=env.sim.now + 30.0)
    print(f"forged agent: state={evil.state} ({evil.error})")
    assert evil.state == "failed" and "signature" in evil.error
    print("\ndigital library indexing complete.")


if __name__ == "__main__":
    main()
