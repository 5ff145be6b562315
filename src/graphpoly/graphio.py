"""Graph serialization: edge-list text, JSON, digests, generator specs."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Union

from .graphs import (
    DIFF,
    SUM,
    SignedMultigraph,
    build_complete,
    build_cycle,
    build_cycle_power,
    build_digon,
    build_path,
    build_petersen,
    cartesian_product,
    make_graph,
)


def to_edge_list(g: SignedMultigraph) -> str:
    """Text format: header `n <count>`, then `u v` or `u v sum` per edge."""
    lines = [f"n {g.n}"]
    for u, v, tag in g.edges:
        lines.append(f"{u} {v} sum" if tag == SUM else f"{u} {v}")
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> SignedMultigraph:
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ValueError(f"expected header 'n <count>', got {raw!r}")
            n = int(parts[1])
            continue
        if len(parts) == 2:
            edges.append((int(parts[0]), int(parts[1]), DIFF))
        elif len(parts) == 3 and parts[2] == "sum":
            edges.append((int(parts[0]), int(parts[1]), SUM))
        else:
            raise ValueError(f"bad edge line {raw!r}")
    if n is None:
        raise ValueError("missing header line")
    return make_graph(n, edges)


def to_json_obj(g: SignedMultigraph) -> dict:
    return {"n": g.n, "edges": list(map(list, g.edges))}


def _int(value, depth: int = 0, *, optional: bool = False):
    """An integer field of a graph or certificate: a JSON integer (never a
    bool), or a list of depth - 1 such fields; None where the field is optional."""
    if value is None and optional:
        return None
    if depth:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        return [_int(x, depth - 1) for x in value]
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def from_json_obj(obj: dict) -> SignedMultigraph:
    """A graph in to_json_obj form, read strictly in one pass: n and the endpoints must be
    JSON integers and each edge a [u, v, tag] triple, or ValueError; edges as make_graph orders them."""
    try:
        n, edges = _int(obj["n"]), []
        for u, v, tag in obj["edges"]:
            if not type(u) is type(v) is int:
                _int(u), _int(v)  # raises on the first endpoint that is not an integer
            edges.append((u, v, tag) if u <= v else (v, u, tag))
        return SignedMultigraph(n, tuple(sorted(edges)))
    except (LookupError, TypeError) as exc:
        raise ValueError(str(exc)) from None


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(obj) -> str:
    """Deterministic JSON used for digests and byte-identical output, from one shared encoder."""
    return _ENCODER.encode(obj)


def graph_json(g: SignedMultigraph) -> str:
    """canonical_json(to_json_obj(g)), written from the edges once per graph and kept with it (a graph
    is immutable), for its digest and for the certificates and files that hold it."""
    text = g.__dict__.get("_json")
    if text is None:
        edges = ",".join([f'[{u},{v},"{tag}"]' for u, v, tag in g.edges])
        text = g.__dict__["_json"] = f'{{"edges":[{edges}],"n":{g.n}}}'
    return text


def graph_fields(g: SignedMultigraph) -> dict:
    """A certificate's "graph" and "graph_digest" fields for g, the digest over graph_json(g)."""
    return {"graph": to_json_obj(g), "graph_digest": graph_digest(g)}


def graph_digest(g: SignedMultigraph) -> str:
    return hashlib.sha256(graph_json(g).encode()).hexdigest()


# ---------------------------------------------------------------------------
# generator specs ("cycle:5", "product:cycle:3:cycle:4", ...)
# ---------------------------------------------------------------------------

# each atom once, as (builder, argument count)
_ATOMS = {
    "cycle": (build_cycle, 1),
    "path": (build_path, 1),
    "complete": (build_complete, 1),
    "cyclepower": (build_cycle_power, 2),
    "digon": (build_digon, 0),
    "petersen": (build_petersen, 0),
}


def _build_atom(name: str, args: list[str], spec: str) -> SignedMultigraph:
    builder, count = _ATOMS[name]
    if len(args) != count:
        raise ValueError(f"{name} takes {count} argument(s), got {len(args)}, in {spec!r}")
    return builder(*map(int, args))


def parse_graph_spec(spec: str) -> SignedMultigraph:
    """Build a graph from a compact generator spec.

    Supported: cycle:N, path:K, complete:N, cyclepower:N:P, digon,
    petersen, and product:<spec>:<spec>[:<spec>...] over the same atoms.
    """
    head, *args = spec.strip().lower().split(":")
    if head in _ATOMS:
        return _build_atom(head, args, spec)
    if head == "product":
        # args is a flat list like ["cycle", "3", "cycle", "4"]; regroup by
        # reading one atom (name + its numeric arguments) at a time.
        factors = []
        while args:
            name = args[0]
            if name not in _ATOMS:
                raise ValueError(f"unknown product factor {name!r} in {spec!r}")
            count = _ATOMS[name][1]
            factors.append(_build_atom(name, args[1:1 + count], spec))
            args = args[1 + count:]
        if len(factors) < 2:
            raise ValueError("product needs at least two factors")
        return cartesian_product(*factors)
    raise ValueError(f"unknown graph spec {spec!r}")


def load_graph(source: Union[str, os.PathLike]) -> SignedMultigraph:
    """Load a graph from a file path (edge list or JSON) or a generator spec."""
    path = str(source)
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return from_json_obj(json.loads(text))
        return from_edge_list(text)
    return parse_graph_spec(path)


def save_graph(g: SignedMultigraph, path: Union[str, os.PathLike], fmt: str = "edgelist") -> None:
    if fmt == "edgelist":
        text = to_edge_list(g)
    elif fmt == "json":
        text = graph_json(g) + "\n"
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
