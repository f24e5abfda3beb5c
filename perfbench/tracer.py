"""Spans and counters around msolab's public entry points, installed from the
benchmark's side so the program itself stays untouched.

A span records (id, name, start, end, parent id, thread id, cpu seconds) at a
layer boundary; spans stay in memory and are written once, when the traced
process ends. Hot leaf functions (the Laurent products, the band kernels,
the basis coordinate maps, the cached expansions) are counted instead of
spanned: a call count and the time inside, kept per thread, because a span
object per call would distort the functions it measures.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from types import ModuleType

# Functions wrapped with a span. A span named after a layer records the call
# that entered the layer; nested calls give self time by subtraction.
SPANNED = (
    "operators.build_dtto", "operators.build_tto",
    "characterize.check_adtto", "characterize.check_block_conditions",
    "characterize.is_analytic_adtto", "characterize.recover_symbol",
    "characterize.shift_invariance_defect", "spaces.admissible_for_shift",
    "annihilate.pair", "annihilate.gen_M", "annihilate.gen_shift_pair",
    "annihilate.represent_functional", "annihilate.transitivity_probe",
    "operators.BlockOperator.to_json", "operators.BlockOperator.from_json",
)

# The acceptance criteria, spanned with process CPU time as well; criteria 1
# and 2 share forward_and_roundtrip.
CRITERIA = (
    "forward_and_roundtrip", "nullspace_dimensions", "block_structure_scan",
    "annihilator_families", "transitivity_scan", "isometry_convergence",
    "functional_representation", "conjugation_suite", "proposition_suite",
)

# Counted functions: calls and inclusive seconds.
COUNTED = (
    "laurent.multiply", "laurent.inner_product",
    "kernels.convolve", "kernels.inner_shifted",
    "bases.OrthonormalBasis.coords", "bases.OrthonormalBasis.coords_and_defect",
    "bases.OrthonormalBasis.reconstruct",
    "inner.expand", "inner.tm_basis",
)

# lru caches whose hit ratio is reported, keyed by the layer they serve.
CACHES = {
    "inner.expand": ("inner", "_expand_cached"),
    "inner.tm_basis": ("inner", "_tm_basis_wrapped"),
    "spaces.basis_Kperp": ("spaces", "basis_Kperp"),
}


def _convolve_cost(args) -> tuple[float, float]:
    """Computed flops and bytes of one complex full convolution: 8 flops per
    multiply-add, 16 bytes per complex value read or written once."""
    na, nb = len(args[0]), len(args[1])
    if na == 0 or nb == 0:
        return 0.0, 0.0
    return 8.0 * na * nb, 16.0 * (na + nb + na + nb - 1)


COSTS = {"kernels.convolve": _convolve_cost}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counter_tables: list[dict] = []
        self._tables_lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counters(self) -> dict:
        table = getattr(self._local, "counters", None)
        if table is None:
            table = self._local.counters = {}
            with self._tables_lock:
                self._counter_tables.append(table)
        return table

    def span(self, name, fn, *, cpu: bool = False, name_of=None):
        """Wrap fn so each call records a span. `name_of(args, kwargs)` may
        refine the name from the arguments."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        perf, proc = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0 = proc() if cpu else 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                label = name_of(args, kwargs) if name_of else name
                spans.append((sid, label, t0, t1, parent, threading.get_ident(),
                              proc() - c0 if cpu else 0.0))
        return wrapper

    def count(self, name, fn):
        """Wrap fn so calls are counted and timed without a span."""
        counters_of, perf = self._counters, time.perf_counter
        cost = COSTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                table = counters_of()
                rec = table.get(name)
                if rec is None:
                    rec = table[name] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                if cost is not None:
                    flops, nbytes = cost(args)
                    rec[2] += flops
                    rec[3] += nbytes
        return wrapper

    # -- output -------------------------------------------------------------

    def counters(self) -> dict:
        total: dict[str, list] = {}
        with self._tables_lock:
            tables = list(self._counter_tables)
        for table in tables:
            for name, rec in list(table.items()):
                acc = total.setdefault(name, [0, 0.0, 0.0, 0.0])
                for i, v in enumerate(rec):
                    acc[i] += v
        return total

    def dump(self, path, **extra):
        payload = {"spans": self.spans, "counters": self.counters(),
                   "caches": cache_stats(), **extra}
        with open(path, "w") as fh:
            json.dump(payload, fh)


# -- installation -------------------------------------------------------------

def _msolab_modules() -> list[ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "msolab" or n.startswith("msolab."))]


def _resolve(path: str):
    """'module.func' or 'module.Class.method' -> (owner, attr, raw value)."""
    parts = path.split(".")
    owner = sys.modules.get("msolab." + parts[0])
    if owner is None:
        return None
    for name in parts[1:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else \
        getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


def _replace_everywhere(owner, attr, raw, new):
    """Point every reference msolab's modules hold to `raw` at `new`, so
    names imported with `from .x import f` are traced too."""
    setattr(owner, attr, new)
    if isinstance(owner, type):
        return
    for module in _msolab_modules():
        for name, value in list(vars(module).items()):
            if value is raw:
                setattr(module, name, new)


def _wrap(raw, make):
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


def _recover_name(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "zbar")
    return f"characterize.recover_symbol.{method}"


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced entry point that exists; returns the missing ones,
    so a renamed function shows up as a gap instead of a crash."""
    import msolab  # noqa: F401  (loads every submodule)
    import msolab.cli  # noqa: F401

    missing = []
    plan = [(p, lambda fn, p=p: tracer.span(
                p, fn, name_of=_recover_name if p.endswith("recover_symbol") else None))
            for p in SPANNED]
    plan += [(f"suites.{c}", lambda fn, c=c: tracer.span(f"suites.{c}", fn, cpu=True))
             for c in CRITERIA]
    plan += [(p, lambda fn, p=p: tracer.count(p, fn)) for p in COUNTED]
    for path, make in plan:
        found = _resolve(path)
        if found is None:
            missing.append(path)
            continue
        owner, attr, raw = found
        _replace_everywhere(owner, attr, raw, _wrap(raw, make))
    for module, name in CACHES.values():
        if not hasattr(getattr(sys.modules.get("msolab." + module), name, None), "cache_info"):
            missing.append(f"{module}.{name}")
    _trace_cli_json(tracer)
    return missing


def _trace_cli_json(tracer: Tracer):
    """Span the JSON encode/decode the CLI does on payloads."""
    import json as json_module

    import msolab.cli as cli
    shim = ModuleType("json")
    shim.__dict__.update(vars(json_module))
    shim.loads = tracer.span("cli.json.loads", json_module.loads)
    shim.dumps = tracer.span("cli.json.dumps", json_module.dumps)
    cli.json = shim


def cache_stats() -> dict:
    out = {}
    for layer, (module, name) in CACHES.items():
        fn = getattr(sys.modules.get("msolab." + module), name, None)
        info = getattr(fn, "cache_info", None)
        if info is not None:
            ci = info()
            out[layer] = [ci.hits, ci.misses]
    return out
