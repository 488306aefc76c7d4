"""Naming: URLs, URNs and LIFNs (§3.1, §5.2).

    "Because RCDS resources are named by URLs or URNs, SNIPE processes and
    their metadata are addressable using a widely-deployed global name
    space."

Conventions used throughout the reproduction:

* hosts:            ``snipe://<host>/``
* host daemons:     ``snipe://<host>/daemon``
* processes:        ``urn:snipe:proc:<name>``
* services:         ``urn:snipe:svc:<name>``
* multicast groups: ``urn:snipe:mcast:<name>``
* users:            ``urn:snipe:user:<name>``
* files:            ``lifn:<name>`` (location-independent) resolving to
  concrete ``file://<host>/<path>`` locations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def host_url(host: str) -> str:
    """The distinguished URL for a host (§5.2.1)."""
    return f"snipe://{host}/"


def daemon_url(host: str) -> str:
    return f"snipe://{host}/daemon"


def process_urn(name: str) -> str:
    """The distinguished URN for a process (§5.2.3)."""
    return f"urn:snipe:proc:{name}"


def service_urn(name: str) -> str:
    return f"urn:snipe:svc:{name}"


def mcast_urn(name: str) -> str:
    return f"urn:snipe:mcast:{name}"


def user_urn(name: str) -> str:
    return f"urn:snipe:user:{name}"


def lifn_name(name: str) -> str:
    return f"lifn:{name}"


def file_url(host: str, path: str) -> str:
    return f"file://{host}/{path.lstrip('/')}"


def scheme_of(uri: str) -> str:
    """The naming scheme: 'snipe', 'urn', 'lifn', 'file', ..."""
    return uri.split(":", 1)[0] if ":" in uri else ""


def host_of(uri: str) -> Optional[str]:
    """Host component of a snipe:// or file:// URL, else None."""
    for prefix in ("snipe://", "file://"):
        if uri.startswith(prefix):
            rest = uri[len(prefix):]
            return rest.split("/", 1)[0] or None
    return None


def host_records(urls: List[str]) -> Dict[str, str]:
    """``{url: host}`` for the host records (``snipe://<host>/``) among
    *urls*, skipping sub-resources like ``snipe://<host>/fileserver``."""
    out = {}
    for url in urls:
        host = host_of(url)
        if host is not None and url.endswith("/"):
            out[url] = host
    return out


def urn_kind(uri: str) -> Optional[Tuple[str, str]]:
    """For urn:snipe:<kind>:<name>, return (kind, name); else None."""
    parts = uri.split(":", 3)
    if len(parts) == 4 and parts[0] == "urn" and parts[1] == "snipe":
        return parts[2], parts[3]
    return None


def locations_of(assertions: Dict) -> List[Tuple[str, int]]:
    """The sorted ``(host, port)`` pairs a service record advertises: its
    truthy ``location:<host>:<port>`` assertions (how replicated services,
    RMs and file servers register, §5.2)."""
    out = []
    for key, info in assertions.items():
        if key.startswith("location:") and info["value"]:
            hostname, port = key[len("location:"):].rsplit(":", 1)
            out.append((hostname, int(port)))
    return sorted(out)
