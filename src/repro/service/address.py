"""One connection-addressing scheme for every service transport.

The redesigned surface is a single ``--connect URL`` (CLI) /
``ServiceClient(url)`` (library) accepting::

    unix:///path/to/owl.sock     JSON-lines over a unix-domain socket
    tcp://host:port              JSON-lines over TCP
    http://host:port             the HTTP/JSON front end

Internally every transport still resolves to the historical ``Address``
tuple ``(kind, target)`` — ``("unix", path)``, ``("tcp", (host, port))``
or ``("http", (host, port))`` — so pre-redesign call sites keep working
unchanged.  A bare filesystem path (no scheme) is accepted as a unix
socket for convenience.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigError

#: (kind, target): ("unix", path), ("tcp", (host, port)),
#: or ("http", (host, port)).
Address = Tuple[str, object]

#: Default TCP port of the HTTP front end when a URL omits one.
DEFAULT_HTTP_PORT = 8750


def parse_connect(url: str) -> Address:
    """``unix:///path`` / ``tcp://host:port`` / ``http://host:port``."""
    text = str(url).strip()
    if not text:
        raise ConfigError("empty --connect URL")
    if text.startswith("unix://"):
        path = text[len("unix://"):]
        if not path:
            raise ConfigError(
                f"unix URL {url!r} carries no socket path "
                f"(use unix:///absolute/path)")
        return ("unix", path)
    for scheme in ("tcp", "http"):
        prefix = f"{scheme}://"
        if not text.startswith(prefix):
            continue
        rest = text[len(prefix):].rstrip("/")
        host, sep, port_text = rest.rpartition(":")
        if not sep:
            if scheme == "http":
                return ("http", (rest or "127.0.0.1", DEFAULT_HTTP_PORT))
            raise ConfigError(
                f"tcp URL {url!r} needs an explicit port "
                f"(use tcp://host:port)")
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigError(f"{scheme} URL {url!r} has a non-numeric port")
        return (scheme, (host or "127.0.0.1", port))
    if "://" in text:
        scheme = text.split("://", 1)[0]
        raise ConfigError(
            f"unsupported connection scheme {scheme!r} in {url!r} "
            f"(choose unix://, tcp://, or http://)")
    # a bare path reads as a unix socket
    return ("unix", text)


def format_address(address: Address) -> str:
    """The canonical ``--connect`` URL of an address tuple."""
    kind, target = address
    if kind == "unix":
        return f"unix://{target}"
    host, port = target  # type: ignore[misc]
    return f"{kind}://{host}:{port}"
