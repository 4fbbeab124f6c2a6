"""Per-layer tracing of ``fermisect`` from outside the package.

`Tracer.install` replaces every public function of the package modules (and
every public method of the classes they define) with a wrapper that records
a span: name, start, end, parent span and request id.  It patches the name in
every ``fermisect`` module that holds the function, including modules that
imported it with ``from ... import`` and the ``verify.CRITERIA`` table, and
then checks that the original object is reachable from none of them.  Spans
stay in memory, in flat arrays of one `Recording` per pass, until
`Recording.write` saves them.

Layers are named after the modules; ``bogoliubov`` and ``spectrum`` are split
by role (see `LAYER_OF`).  A layer's self time is the time its spans cover
minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

MODULES = ("field", "bogoliubov", "spectrum", "fock", "detector", "povm", "verify", "cli")

#: Functions with a sub-layer of their own.  Every other public function
#: belongs to the layer named after its module, except that the rest of
#: ``bogoliubov`` is ``bogoliubov.kernel`` and the rest of ``spectrum`` is
#: ``spectrum.contract``.
LAYER_OF = {
    "bogoliubov.overlap_oracle": "bogoliubov.oracle",
    "bogoliubov.calibrate": "bogoliubov.oracle",
    "bogoliubov.pair_to_csv": "bogoliubov.io",
    "bogoliubov.pair_from_csv": "bogoliubov.io",
    "spectrum.auto_truncation": "spectrum.truncation",
    "spectrum.write_spectrum_csv": "spectrum.io",
    "spectrum.write_correlation_csv": "spectrum.io",
}
DEFAULT_LAYER = {"bogoliubov": "bogoliubov.kernel", "spectrum": "spectrum.contract"}

LAYERS = ("cli", "field", "bogoliubov.kernel", "bogoliubov.oracle", "bogoliubov.io",
          "spectrum.contract", "spectrum.truncation", "spectrum.io",
          "fock", "detector", "povm", "verify")


class CoverageError(RuntimeError):
    """A traced function is still reachable unwrapped."""


class Recording:
    """The spans and counters of one traced pass."""

    def __init__(self):
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request_id = array("i")
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.resolved_n: list[int] = []
        self.rows: set = set()
        self.probe_depth = 0
        self.oracle_depth = 0

    def begin_request(self, request: int) -> None:
        self.request = request
        self.rows = set()

    def add_entries(self, count: int) -> None:
        self.counts["entries"] += count
        if self.probe_depth:
            self.counts["probe_entries"] += count

    def metrics(self, names: list[str], layer_of: list[str]) -> dict[str, float]:
        """Per-layer metrics of this pass (``names``/``layer_of`` index span names)."""
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * 1e-9 for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls, self_s, by_name = Counter(), Counter(), Counter()
        for i in range(n):
            layer = layer_of[self.name_id[i]]
            calls[layer] += 1
            self_s[layer] += dur[i] - child[i]
            by_name[self.name_id[i]] += 1
        criterion = Counter()
        number_of = {f"verify.{fn.__name__}": num
                     for num, fn in sys.modules["fermisect.verify"].CRITERIA.items()}
        for i in range(n):
            num = number_of.get(names[self.name_id[i]])
            if num is not None:
                criterion[num] += dur[i]
        c = self.counts
        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        m["bogoliubov.kernel.entries"] = c["entries"]
        m["bogoliubov.kernel.repeat_frac"] = (c["row_repeats"] / c["row_evals"]
                                              if c["row_evals"] else 0.0)
        m["spectrum.truncation.probe_steps"] = c["probe_steps"]
        m["spectrum.truncation.resolved_n"] = (sum(self.resolved_n) / len(self.resolved_n)
                                               if self.resolved_n else 0.0)
        m["spectrum.truncation.probe_share"] = (c["probe_entries"] / c["entries"]
                                                if c["entries"] else 0.0)
        m["spectrum.io.bytes"] = c["spectrum.io.bytes"]
        m["bogoliubov.io.bytes"] = c["bogoliubov.io.bytes"]
        m["bogoliubov.oracle.nodes"] = c["oracle_nodes"]
        m["bogoliubov.oracle.unresolved"] = c["unresolved"]
        m["fock.dim_max"] = c["dim_max"]
        m["detector.overlaps"] = by_name[names.index("detector.mode_overlap")]
        for num in range(1, 10):
            m[f"verify.c{num}_s"] = criterion[num]
        m["trace.spans"] = n
        m["trace.self_sum_s"] = sum(self_s.values())
        return m

    def write(self, path, names: list[str], layer_of: list[str], origin_ns: int) -> None:
        """Save the spans as columns; times in ns from ``origin_ns``, parent -1 at a root."""
        payload = {
            "names": names,
            "layers": layer_of,
            "name": self.name_id.tolist(),
            "start_ns": [t - origin_ns for t in self.start],
            "end_ns": [t - origin_ns for t in self.end],
            "parent": self.parent.tolist(),
            "request": self.request_id.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class Tracer:
    """Installs and removes the span wrappers; records into ``self.rec``."""

    def __init__(self):
        self.targets = []  # (owner, attribute, original, wrapper)
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.rec = Recording()

    def _wrap(self, fn, name: str):
        short = name.split(".", 1)[0]
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYER_OF.get(name, DEFAULT_LAYER.get(short, short)))
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.rec
            idx = len(rec.start)
            rec.name_id.append(name_id)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.request_id.append(rec.request)
            rec.start.append(0)
            rec.end.append(0)
            rec.stack.append(idx)
            state = hook.before(rec, args, kwargs) if hook else None
            rec.start[idx] = perf_counter_ns()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec.end[idx] = perf_counter_ns()
                if hook:
                    hook.after(rec, state, args, kwargs, result, exc)
                rec.stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every public function; raise `CoverageError` on any leftover original."""
        if not self.targets:
            self._discover()
        self._apply(wrapped=True)
        self.check_coverage()

    def uninstall(self) -> None:
        self._apply(wrapped=False)

    def _discover(self) -> None:
        import fermisect  # noqa: F401  (loads every package module)

        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"fermisect.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self.targets.append(
                                (obj, meth, fn, self._wrap(fn, f"{short}.{attr}.{meth}")))
        for mod in self._holders():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self.targets.append((mod, attr, obj, wrappers[obj]))
        table = sys.modules["fermisect.verify"].CRITERIA
        self.targets += [(table, num, fn, wrappers[fn]) for num, fn in table.items()]
        self.originals = {original for _, _, original, _ in self.targets}

    @staticmethod
    def _holders():
        return [mod for key, mod in sorted(sys.modules.items())
                if key == "fermisect" or key.startswith("fermisect.")]

    def _apply(self, wrapped: bool) -> None:
        for owner, attr, original, wrapper in self.targets:
            value = wrapper if wrapped else original
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def check_coverage(self) -> None:
        """No package module, class or criteria table may still hold an original."""
        holders = self._holders() + [owner for owner, *_ in self.targets if inspect.isclass(owner)]
        leftovers = {f"{owner.__name__}.{attr}" for owner in holders
                     for attr, obj in vars(owner).items() if _is_original(obj, self.originals)}
        table = sys.modules["fermisect.verify"].CRITERIA
        leftovers |= {f"verify.CRITERIA[{num}]" for num, fn in table.items()
                      if fn in self.originals}
        if leftovers:
            raise CoverageError("unwrapped after install: " + ", ".join(sorted(leftovers)))

    def metrics(self) -> dict[str, float]:
        return self.rec.metrics(self.names, self.layer_of)


def _is_original(obj, originals) -> bool:
    try:
        return obj in originals
    except TypeError:  # unhashable module attributes
        return False


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cutoff(args, kwargs, cfg_index, n_index):
    cfg = _arg(args, kwargs, cfg_index, "cfg")
    n_max = args[n_index] if len(args) > n_index else kwargs.get("n_max")
    return cfg, (cfg.truncation if n_max is None else int(n_max))


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries


class Hook:
    def before(self, rec, args, kwargs):
        return None

    def after(self, rec, state, args, kwargs, result, exc):
        pass


class RowHook(Hook):
    """``alpha_row``/``beta_row(m, region, cfg, n_max)``: one row of 2N+1 entries.

    A row evaluation repeats when the same ``(m, region, mu*L, time, N)`` was
    already evaluated in the request, by either function.
    """

    def after(self, rec, state, args, kwargs, result, exc):
        cfg, n = _cutoff(args, kwargs, 2, 3)
        rec.add_entries(2 * n + 1)
        key = (_arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "region"),
               cfg.mass * cfg.half_length, cfg.time, n)
        rec.counts["row_evals"] += 1
        rec.counts["row_repeats"] += key in rec.rows
        rec.rows.add(key)


class PairHook(Hook):
    """``build_pair(region, cfg, n_max)``: the full (2N+1)^2 matrix pair."""

    def after(self, rec, state, args, kwargs, result, exc):
        rec.add_entries((2 * _cutoff(args, kwargs, 1, 2)[1] + 1) ** 2)


class ResidualHook(Hook):
    """``canonicity_residual(m, n_max, cfg, region)``: one row."""

    def after(self, rec, state, args, kwargs, result, exc):
        rec.add_entries(2 * int(_arg(args, kwargs, 1, "n_max")) + 1)


class EntryHook(Hook):
    def after(self, rec, state, args, kwargs, result, exc):
        rec.add_entries(1)


class ProbeHook(Hook):
    def before(self, rec, args, kwargs):
        rec.probe_depth += 1

    def after(self, rec, state, args, kwargs, result, exc):
        rec.probe_depth -= 1
        if exc is None:
            rec.resolved_n.append(int(result))


class SpectrumHook(Hook):
    def after(self, rec, state, args, kwargs, result, exc):
        if rec.probe_depth:
            rec.counts["probe_steps"] += 1


class OracleHook(Hook):
    def before(self, rec, args, kwargs):
        rec.oracle_depth += 1

    def after(self, rec, state, args, kwargs, result, exc):
        rec.oracle_depth -= 1
        if exc is not None and type(exc).__name__ == "QuadratureUnresolved":
            rec.counts["unresolved"] += 1


class ModeFunctionHook(Hook):
    """Quadrature nodes: the length of ``x`` the oracle hands to ``mode_function``."""

    def after(self, rec, state, args, kwargs, result, exc):
        if rec.oracle_depth:
            x = _arg(args, kwargs, 2, "x")
            rec.counts["oracle_nodes"] += len(x) if hasattr(x, "__len__") else 1


class SpaceHook(Hook):
    def after(self, rec, state, args, kwargs, result, exc):
        if exc is None:
            rec.counts["dim_max"] = max(rec.counts["dim_max"], result.dimension)


class WriterHook(Hook):
    """Bytes a CSV writer produced, from the buffer position or the file size."""

    def __init__(self, index: int, counter: str):
        self.index, self.counter = index, counter

    def before(self, rec, args, kwargs):
        target = _arg(args, kwargs, self.index, "path_or_buf")
        return target, (None if isinstance(target, (str, bytes)) else target.tell())

    def after(self, rec, state, args, kwargs, result, exc):
        target, pos = state
        rec.counts[self.counter] += os.path.getsize(target) if pos is None else target.tell() - pos


HOOKS = {
    "bogoliubov.alpha_row": RowHook(),
    "bogoliubov.beta_row": RowHook(),
    "bogoliubov.build_pair": PairHook(),
    "bogoliubov.canonicity_residual": ResidualHook(),
    "bogoliubov.alpha_entry": EntryHook(),
    "bogoliubov.beta_entry": EntryHook(),
    "bogoliubov.overlap_oracle": OracleHook(),
    "bogoliubov.calibrate": OracleHook(),
    "bogoliubov.pair_to_csv": WriterHook(1, "bogoliubov.io.bytes"),
    "spectrum.write_spectrum_csv": WriterHook(0, "spectrum.io.bytes"),
    "spectrum.write_correlation_csv": WriterHook(0, "spectrum.io.bytes"),
    "spectrum.auto_truncation": ProbeHook(),
    "spectrum.occupation_spectrum": SpectrumHook(),
    "field.mode_function": ModeFunctionHook(),
    "fock.build_space": SpaceHook(),
}
