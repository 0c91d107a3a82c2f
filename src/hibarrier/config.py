"""System configuration files: JSON documents with expression-string leaves."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import expr as ex
from . import geometry as geo
from .fields import C1, LIPSCHITZ, ScalarField, SetValuedMap
from .model import BarrierCandidate, HybridSystem

__all__ = ["ConfigError", "SystemBundle", "load_system", "system_from_dict"]


class ConfigError(ValueError):
    """Malformed configuration; message carries the path and any parser
    diagnostic position."""


@dataclass
class SystemBundle:
    system: HybridSystem
    barrier: BarrierCandidate
    box: np.ndarray
    expected: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.system.name


def _parse_expr(text: str, n: int, k: int, constants: dict, where: str) -> ex.Ast:
    if not isinstance(text, str):
        raise ConfigError(f"{where}: expected an expression string, got {text!r}")
    try:
        return ex.parse(text, n, k, constants)
    except ex.ExprError as e:
        raise ConfigError(f"{where}: {e.diagnostic} in {text!r}") from e


def _field_from_expr(text: str, n: int, constants: dict, where: str,
                     smoothness: str = C1) -> ScalarField:
    ast = _parse_expr(text, n, 0, constants, where)
    if smoothness not in (C1, LIPSCHITZ):
        raise ConfigError(f"{where}: smoothness must be 'c1' or 'lipschitz', "
                          f"got {smoothness!r}")
    value = ex.compile_ast(ast)
    partials = [ex.differentiate(ast, i) for i in range(n)]
    smooth = not any(isinstance(d, ex.NonSmoothMarker) for d in partials)
    # second partials, row by row; a smooth field's are smooth too
    second = [ex.differentiate(d, j) for d in partials for j in range(n)] if smooth else []
    affine = smooth and all(s == ex.Lit(0.0) for s in second)
    hess = None
    if smooth and not affine:
        flat = ex.compile_vector(second)
        hess = lambda x: flat(x).reshape(n, n)  # noqa: E731
    return ScalarField(n=n, fn=lambda x: value(x, ()),
                       grad=ex.compile_vector(partials) if smooth else None,
                       tag=smoothness, name=text, affine=affine, hess=hess)


def _set_from_tree(tree, n: int, constants: dict, where: str) -> geo.Node:
    if isinstance(tree, str):
        return geo.Leaf(_field_from_expr(tree, n, constants, where))
    if isinstance(tree, dict):
        if "leaf" in tree:
            strict = tree.get("strict", False)
            if not isinstance(strict, bool):
                raise ConfigError(f"{where}: 'strict' must be true or false")
            return geo.Leaf(_field_from_expr(tree["leaf"], n, constants, where),
                            strict=strict)
        for key, node in (("all", geo.Intersection), ("any", geo.Union)):
            if key in tree:
                items = tree[key]
                if not isinstance(items, list) or not items:
                    raise ConfigError(f"{where}: '{key}' must be a nonempty array")
                return node(tuple(_set_from_tree(c, n, constants, f"{where}.{key}[{i}]")
                                  for i, c in enumerate(items)))
    raise ConfigError(f"{where}: set trees are expression strings or objects "
                      "with 'leaf'/'all'/'any'")


def _map_from_exprs(exprs, n: int, k: int, constants: dict, where: str,
                    name: str) -> SetValuedMap:
    if not isinstance(exprs, (list, tuple)) or len(exprs) != n:
        raise ConfigError(f"{where}: expected {n} component expressions")
    asts = [_parse_expr(t, n, k, constants, f"{where}[{i}]")
            for i, t in enumerate(exprs)]
    return SetValuedMap(n=n, k=k, fn=ex.compile_vector(asts), name=name)


def _is_int(v) -> bool:
    """A JSON integer: bool is an int subclass in Python, so it is excluded."""
    return isinstance(v, int) and not isinstance(v, bool)


def system_from_dict(doc: dict, source: str = "<dict>") -> SystemBundle:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    n = doc.get("dim")
    if not _is_int(n) or n < 1:
        raise ConfigError(f"{source}: 'dim' must be an integer >= 1")
    try:
        constants = {str(k): float(v) for k, v in doc.get("constants", {}).items()}
    except (AttributeError, TypeError, ValueError):
        raise ConfigError(f"{source}: 'constants' must map names to numbers")
    k = doc.get("params", 0)
    if not _is_int(k) or k < 0:
        raise ConfigError(f"{source}: 'params' must be an integer >= 0")
    if not isinstance(doc.get("notes", []), list):
        raise ConfigError(f"{source}: 'notes' must be an array")
    if not isinstance(doc.get("expected", {}), dict):
        raise ConfigError(f"{source}: 'expected' must be an object")
    for key in ("C", "D", "F", "G", "barrier", "box"):
        if key not in doc:
            raise ConfigError(f"{source}: missing '{key}'")

    C = geo.SetDescription(n, _set_from_tree(doc["C"], n, constants, "C"), name="C")
    D = geo.SetDescription(n, _set_from_tree(doc["D"], n, constants, "D"), name="D")
    F = _map_from_exprs(doc["F"], n, k, constants, "F", "F")
    G = _map_from_exprs(doc["G"], n, k, constants, "G", "G")

    barrier_spec = doc["barrier"]
    if not isinstance(barrier_spec, list) or not barrier_spec:
        raise ConfigError(f"{source}: 'barrier' must be a nonempty array")
    comps = []
    for i, item in enumerate(barrier_spec):
        if isinstance(item, str):
            text, smooth = item, C1
        elif isinstance(item, dict):
            text = item.get("expr")
            smooth = item.get("smoothness", C1)
            if not isinstance(text, str):
                raise ConfigError(f"{source}: barrier[{i}] needs an 'expr' string")
        else:
            raise ConfigError(f"{source}: barrier[{i}] must be a string or object")
        comps.append(_field_from_expr(text, n, constants, f"barrier[{i}]", smooth))
    barrier = BarrierCandidate(tuple(comps))

    try:
        box = np.asarray(doc["box"], dtype=float)
    except (TypeError, ValueError):
        box = np.empty(0)  # ragged or not numeric: fails the shape check below
    if (box.shape != (n, 2) or not np.all(np.isfinite(box))
            or not np.all(box[:, 0] < box[:, 1])):
        raise ConfigError(f"{source}: 'box' must be {n} finite pairs [lo, hi] with lo < hi")

    system = HybridSystem(n=n, C=C, F=F, D=D, G=G,
                          name=str(doc.get("name", source)), constants=constants)
    return SystemBundle(system=system, barrier=barrier, box=box,
                        expected=doc.get("expected", {}),
                        notes=[str(s) for s in doc.get("notes", [])],
                        raw=doc)


def load_system(path: str | Path) -> SystemBundle:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return system_from_dict(doc, source=str(path))
