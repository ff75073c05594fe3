"""Minimal stdlib HTTP/1.1 front end over :class:`SolverService`.

No web framework in the dependency budget, and none needed: the wire
surface is four JSON endpoints, each one connection = one request
(``Connection: close``), parsed with ``asyncio`` stream primitives.
Handlers run as tasks on the service's event loop, so concurrent
``POST /solve`` connections land in the same micro-batch window —
HTTP callers get the blocked-solve win with zero client coordination.

Endpoints
---------
* ``GET /healthz`` → ``{"ok": true, "graphs": N}``
* ``GET /stats`` → :meth:`SolverService.stats`
* ``POST /graphs`` — body ``{"n", "u", "v", "w", ["mult"], ["seed"]}``;
  registers (and warm-builds) the graph, returns
  ``{"key", "n", "m", "chain_nbytes"}``.
* ``POST /solve`` — body ``{"key", "b" | ("source", "sink"),
  ["eps"], ["method"]}`` (``source``/``sink`` are integers in
  ``[-n, n)``, negatives counting from the end); returns the request's scattered column:
  ``{"x", "status", "iterations", "residual_2norm", "method",
  "batched_k", "batch_seq"}``.

Errors come back as ``{"error": msg}`` with 400 (bad request), 404
(unknown route/key), 408 (read timeout), 413 (oversized body), 503
(overloaded — with a ``Retry-After`` header and a ``retry_after``
field in the body), or 500 (unexpected).
"""

from __future__ import annotations

import asyncio
import functools
import json

import numpy as np

from repro.core.solver import DEFAULT_METHOD, METHODS
from repro.errors import ReproError, ServiceError, ServiceOverloadedError

__all__ = ["start_http", "http_request", "READ_TIMEOUT_S"]

_MAX_BODY = 256 * 1024 * 1024

#: Per-connection read timeout (seconds).  Bounds how long a
#: connection may take to deliver its request line, headers, and body
#: — so an idle or trickling client cannot pin a handler task forever.
#: Response writing and the solve itself are not under this timeout.
READ_TIMEOUT_S = 30.0


async def start_http(service, host: str, port: int):
    """``asyncio.start_server`` wrapper binding the request handler."""
    return await asyncio.start_server(
        functools.partial(_handle, service), host, port)


async def _read_request(reader: asyncio.StreamReader):
    """Read one request (line, headers, body); ``None`` on empty close."""
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, path, _ = request_line.decode("latin1").split(" ", 2)
    except ValueError:
        raise _HttpError(400, "malformed request line")
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or 0)
    except ValueError:
        raise _HttpError(400, "bad Content-Length")
    if length < 0:
        raise _HttpError(400, "bad Content-Length")
    if length > _MAX_BODY:
        raise _HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, body


async def _handle(service, reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    status, payload = 500, {"error": "internal error"}
    retry_after: float | None = None
    try:
        try:
            request = await asyncio.wait_for(
                _read_request(reader), timeout=READ_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise _HttpError(
                408, "request not received within the read timeout")
        if request is None:
            writer.close()
            return
        method, path, body = request
        status, payload = await _dispatch(service, method.upper(),
                                          path.strip(), body)
    except _HttpError as exc:
        status, payload = exc.status, {"error": exc.message}
        retry_after = exc.retry_after
        if retry_after is not None:
            payload["retry_after"] = retry_after
    except (asyncio.IncompleteReadError, ConnectionError):
        writer.close()
        return
    except Exception as exc:  # pragma: no cover - defensive
        status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
    data = json.dumps(payload).encode()
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              408: "Request Timeout", 413: "Payload Too Large",
              500: "Internal Server Error",
              503: "Service Unavailable"}.get(status, "Error")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n")
    if retry_after is not None:
        head += f"Retry-After: {max(1, round(retry_after))}\r\n"
    head += "Connection: close\r\n\r\n"
    try:
        writer.write(head.encode("latin1") + data)
        await writer.drain()
    except ConnectionError:  # pragma: no cover - client went away
        pass
    finally:
        writer.close()


class _HttpError(Exception):
    def __init__(self, status: int, message: str,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _json_body(body: bytes) -> dict:
    if not body:
        raise _HttpError(400, "missing JSON body")
    try:
        obj = json.loads(body.decode())
    except (ValueError, UnicodeDecodeError):
        raise _HttpError(400, "invalid JSON body")
    if not isinstance(obj, dict):
        raise _HttpError(400, "JSON body must be an object")
    return obj


async def _dispatch(service, method: str, path: str,
                    body: bytes) -> tuple[int, dict]:
    if method == "GET" and path == "/healthz":
        return 200, {"ok": True, "graphs": len(service._specs)}
    if method == "GET" and path == "/stats":
        return 200, service.stats()
    if method == "POST" and path == "/graphs":
        return await _post_graph(service, _json_body(body))
    if method == "POST" and path == "/solve":
        return await _post_solve(service, _json_body(body))
    return 404, {"error": f"no route {method} {path}"}


def _integer(obj: dict, field: str) -> int:
    """``obj[field]`` as an int; 400 unless it is an integral number."""
    value = obj[field]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _HttpError(400, f"{field!r} must be an integer")


def _integer_array(obj: dict, field: str) -> np.ndarray:
    """``obj[field]`` as an int64 array; 400 unless every entry is an
    integral number (``MultiGraph`` itself would truncate ``0.5``)."""
    message = f"{field!r} must be an array of integers"
    try:
        arr = np.asarray(obj[field])
    except ValueError:  # ragged nesting
        raise _HttpError(400, message)
    if arr.dtype.kind == "f" and np.isfinite(arr).all() \
            and (arr == np.trunc(arr)).all():
        arr = arr.astype(np.int64)
    if arr.dtype.kind not in "iu":
        raise _HttpError(400, message)
    return arr


async def _post_graph(service, obj: dict) -> tuple[int, dict]:
    from repro.graphs.multigraph import MultiGraph

    for field in ("n", "u", "v", "w"):
        if field not in obj:
            raise _HttpError(400, f"graph body needs {field!r}")
    n = _integer(obj, "n")
    u, v = _integer_array(obj, "u"), _integer_array(obj, "v")
    mult = _integer_array(obj, "mult") \
        if obj.get("mult") is not None else None
    seed = _integer(obj, "seed") if obj.get("seed") is not None else None
    if seed is not None and seed < 0:
        raise _HttpError(400, "'seed' must be non-negative")
    try:
        graph = MultiGraph(n, u, v, np.asarray(obj["w"], dtype=np.float64),
                           mult=mult)
    except (ReproError, TypeError, ValueError) as exc:
        raise _HttpError(400, f"bad graph: {exc}")
    loop = asyncio.get_running_loop()
    try:
        # The warm build is the expensive part — run it off-loop in the
        # solve executor (single-flight via the cache either way).
        key = await loop.run_in_executor(
            service._solve_pool,
            functools.partial(service.register, graph, seed=seed))
    except ReproError as exc:
        raise _HttpError(400, f"build failed: {exc}")
    solver = service.cache.get(key)
    return 200, {"key": key, "n": graph.n, "m": graph.m,
                 "chain_nbytes": int(solver.chain.nbytes)
                 if solver is not None else None}


async def _post_solve(service, obj: dict) -> tuple[int, dict]:
    key = obj.get("key")
    if not isinstance(key, str):
        raise _HttpError(400, "solve body needs a string 'key'")
    if key not in service._specs:
        raise _HttpError(404, f"unknown graph key {key!r}")
    spec = service._specs[key]
    if obj.get("b") is not None:
        try:
            b = np.asarray(obj["b"], dtype=np.float64)
        except (TypeError, ValueError):
            raise _HttpError(400, "'b' must be an array of numbers")
        if b.ndim != 1:
            raise _HttpError(400, "'b' must be a flat array")
    elif "source" in obj and "sink" in obj:
        n = spec.graph.n
        source, sink = _integer(obj, "source"), _integer(obj, "sink")
        # Negative indices count from the end (the CLI client's
        # ``--sink`` defaults to -1, the last vertex).
        if not (-n <= source < n and -n <= sink < n):
            raise _HttpError(400, "source/sink out of range")
        b = np.zeros(n)
        b[source] = 1.0
        b[sink] += -1.0
    else:
        raise _HttpError(400, "solve body needs 'b' or 'source'+'sink'")
    try:
        eps = float(obj.get("eps", 1e-6))
    except (TypeError, ValueError):
        raise _HttpError(400, "'eps' must be a number")
    method = obj.get("method", DEFAULT_METHOD)
    if method not in METHODS:
        raise _HttpError(400, f"unknown method {method!r}")
    try:
        result = await service._submit(key, b, eps, method, plan=None)
    except ServiceOverloadedError as exc:
        # Shed load with an explicit retry hint — the one ServiceError
        # subclass that means "nothing wrong with the request".
        raise _HttpError(503, str(exc), retry_after=exc.retry_after)
    except ServiceError as exc:
        raise _HttpError(404, str(exc))
    except ReproError as exc:
        raise _HttpError(400, f"solve failed: {exc}")
    return 200, {"x": result.x.tolist(), "status": result.status,
                 "iterations": result.iterations,
                 "residual_2norm": result.residual_2norm,
                 "method": result.method, "batched_k": result.batched_k,
                 "batch_seq": result.batch_seq}


def http_request(url: str, method: str = "GET", payload: dict | None = None,
                 timeout: float = 60.0) -> tuple[int, dict]:
    """Tiny synchronous JSON client (urllib) for the CLI and tests.

    Returns ``(status_code, decoded_body)``; 4xx/5xx responses are
    returned, not raised, so callers can surface the server's
    ``{"error": ...}`` message.
    """
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode() or "{}")
    except urllib.error.HTTPError as err:
        try:
            body = json.loads(err.read().decode() or "{}")
        except ValueError:
            body = {"error": err.reason}
        return err.code, body
