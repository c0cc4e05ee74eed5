"""Outside-in tracer: wraps the package's public functions from the outside.

Every public function defined in a ``riversep.*`` module is wrapped once,
and the wrapper is bound at every module attribute that referred to the
original (``riversep.linalg.sym_eigen``, ``riversep.fa.sym_eigen``,
``riversep.sym_eigen``, ...).  A module's layer is its name under
``riversep``.  Private helpers are not wrapped, so their time counts toward
their caller's self time.

Spans are kept in memory as ``(function, start, end, parent, op)`` tuples
and written out by :meth:`Tracer.dump`.  The hot scalar formatters in
``riversep.report`` get a call counter instead of a span, so that
formatting a large table is timed as part of its caller, as the package
sees it, and the tracer does not add a span per cell.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "riversep"
COUNT_ONLY = {"report.format_number", "report.format_loading"}


def _package_modules() -> dict:
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def _probe_parse(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return {"bytes_in": len(data), "rows_in": result.n_rows}


def _probe_emit(args, kwargs, result):
    return {"bytes_out": len(result.encode("utf-8"))}


def _probe_fa(args, kwargs, result):
    return {"k": result.k, "converged": result.converged}


def _probe_ica(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


# Work counts read from a call's arguments and result, keyed by function.
PROBES = {
    "ingest.parse_rdb": _probe_parse,
    "ingest.parse_csv": _probe_parse,
    "ingest.emit_csv": _probe_emit,
    "fa.fit_fa_ml": _probe_fa,
    "ica.fast_ica": _probe_ica,
}


class Tracer:
    """Installs span wrappers on the package and records what they see.

    Call :meth:`begin` before each operation; spans and counts carry its id.
    """

    def __init__(self):
        self.spans: list = []
        self.attrs: dict = {}
        self.counts: dict = {}  # (op, function) -> calls, for COUNT_ONLY
        self.op = -1
        self._first: dict = {}  # op -> index of its first span
        self._stack: list = []
        self._bindings: list = []  # (module, attribute, original)
        self._originals: dict = {}  # id(original) -> (original, wrapper)

    def begin(self, op: int) -> None:
        self.op = op
        self._first[op] = len(self.spans)

    # -- installation ------------------------------------------------------

    @staticmethod
    def _targets(modules: dict) -> dict:
        """Public functions defined in the package, keyed as layer.name."""
        targets = {}
        for mod_name, mod in modules.items():
            if mod_name == PACKAGE:
                continue
            layer = mod_name.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod_name
                    and obj.__name__ == attr
                ):
                    targets[f"{layer}.{attr}"] = obj
        return targets

    def _span_wrapper(self, key: str, fn):
        probe = PROBES.get(key)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (key, start, end, parent, self.op)
            if probe is not None:
                self.attrs[idx] = probe(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = (self.op, key)
            counts[slot] = counts.get(slot, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        if not self._originals:
            for key, fn in self._targets(modules).items():
                make = self._count_wrapper if key in COUNT_ONLY else self._span_wrapper
                self._originals[id(fn)] = (fn, make(key, fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                entry = self._originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._bindings.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def unwrapped_bindings(self) -> list[str]:
        """``module.attribute`` names that hold an original, unwrapped function.

        Empty while installed; after :meth:`uninstall` it lists every
        binding site, which is how the restore is checked.
        """
        left = []
        for mod_name, mod in _package_modules().items():
            for attr, obj in vars(mod).items():
                entry = self._originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    left.append(f"{mod_name}.{attr}")
        return sorted(left)

    def self_test(self) -> dict:
        """Install, check that no original is left bound, uninstall, check
        that every binding is restored.  Returns what it saw."""
        self.install()
        bound = len(self._bindings)
        left_while_patched = self.unwrapped_bindings()
        self.uninstall()
        restored = len(self.unwrapped_bindings())
        return {
            "functions": len(self._originals),
            "bindings": bound,
            "unwrapped_while_patched": left_while_patched,
            "restored": restored,
            "ok": not left_while_patched and restored == bound and bound > 0,
        }

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write one JSON object per span."""
        with open(path, "w") as out:
            for idx, (key, start, end, parent, op) in enumerate(self.spans):
                rec = {
                    "id": idx,
                    "name": key,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                }
                rec.update(self.attrs.get(idx, {}))
                out.write(json.dumps(rec) + "\n")

    def op_summary(self, op: int) -> dict:
        """Per-function and per-layer totals for one operation.

        ``fn[name]`` holds calls, total seconds and self seconds; ``layer``
        holds calls, busy seconds (time some function of the layer was on
        the stack) and self seconds.  ``evals_by_k`` counts
        ``profiled_discrepancy`` calls under each ``fit_fa_ml`` by its
        ``k``, and ``fit_s_by_k`` sums those fits' seconds.  ``attrs``
        lists ``(function, probe result)`` pairs.
        """
        first = self._first[op]
        later = [i for o, i in self._first.items() if o > op]
        idxs = range(first, min(later) if later else len(self.spans))
        child_time = {}
        for i in idxs:
            key, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        fn: dict = {}
        layer: dict = {}
        evals_by_k: dict = {}
        fit_s_by_k: dict = {}
        for i in idxs:
            key, start, end, parent, _ = self.spans[i]
            dur = end - start
            own = dur - child_time.get(i, 0.0)
            f = fn.setdefault(key, [0, 0.0, 0.0])
            f[0] += 1
            f[1] += dur
            f[2] += own
            name = key.split(".", 1)[0]
            lay = layer.setdefault(name, [0, 0.0, 0.0])
            lay[0] += 1
            lay[2] += own
            # busy time: count a span only if no ancestor is in its layer
            anc = parent
            outermost = True
            fit_k = None
            while anc >= 0:
                akey = self.spans[anc][0]
                if outermost and akey.split(".", 1)[0] == name:
                    outermost = False
                if fit_k is None and akey == "fa.fit_fa_ml":
                    fit_k = self.attrs.get(anc, {}).get("k")
                anc = self.spans[anc][3]
            if outermost:
                lay[1] += dur
            if key == "fa.profiled_discrepancy" and fit_k is not None:
                evals_by_k[fit_k] = evals_by_k.get(fit_k, 0) + 1
            if key == "fa.fit_fa_ml" and i in self.attrs:
                k = self.attrs[i]["k"]
                fit_s_by_k[k] = fit_s_by_k.get(k, 0.0) + dur
        for (cop, key), n in self.counts.items():
            if cop == op:
                fn.setdefault(key, [0, 0.0, 0.0])[0] += n
                layer.setdefault(key.split(".", 1)[0], [0, 0.0, 0.0])[0] += n
        return {
            "fn": fn,
            "layer": layer,
            "evals_by_k": evals_by_k,
            "fit_s_by_k": fit_s_by_k,
            "attrs": [(self.spans[i][0], self.attrs[i]) for i in idxs if i in self.attrs],
        }
