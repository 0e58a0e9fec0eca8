"""Span tracing of comptonqcd's layers from outside the package, and the import probe.

The tracer wraps every module-level public function of the layer modules
(``cli``, ``potential``, ``estimator``, ``spectrum``, ``stressfield``,
``quadrature``) and replaces every reference to it in the package's modules,
so calls through an import site (``composite_simpson`` in ``stressfield``
and ``spectrum``, ``quark_mass_estimate`` in ``spectrum``) are seen too.
``natunits`` is not wrapped: its calls take under a microsecond and run only
inside other layers' spans.  ``cli.fmt`` is not wrapped either: it formats
one number, is called once per printed value, and its cost belongs to the
cli layer's self time.

A span holds its name, start, end, parent, request id, a work count (grid
points for a solve) and whether it raised.  Spans stay in memory and are
written out once at the end.  A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import subprocess
import sys
import time

LAYERS = ("cli", "potential", "estimator", "spectrum", "stressfield", "quadrature")
NOT_WRAPPED = {"cli.fmt"}


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# extra detail for some spans: a name suffix and a work count
ANNOTATE = {
    "spectrum.solve_bound_state": lambda a, k: ("", _first_arg(a, k).grid_points),
    "stressfield.near_field_potential": lambda a, k: (f"[{type(_first_arg(a, k)).__name__}]", 0),
}


class Tracer:
    """In-memory spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.work: list[int] = []
        self.raised: list[bool] = []
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, qualname: str, fn):
        tracer = self
        annotate = ANNOTATE.get(qualname)
        plain_id = self._name_id(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_id, work = plain_id, 0
            if annotate is not None:
                suffix, work = annotate(args, kwargs)
                name_id = tracer._name_id(qualname + suffix)
            sid = len(tracer.start)
            tracer.span_name.append(name_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.request.append(tracer.request_id)
            tracer.work.append(work)
            tracer.raised.append(False)
            tracer.end.append(0)
            tracer._stack.append(sid)
            tracer.start.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[sid] = True
                raise
            finally:
                tracer.end[sid] = time.perf_counter_ns()
                tracer._stack.pop()

        return wrapper

    def install(self, package: str = "comptonqcd") -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(module).items():
                qualname = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and qualname not in NOT_WRAPPED):
                    wrappers[obj] = self.wrap(qualname, obj)
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self)):
                fh.write(json.dumps({
                    "id": i, "parent": self.parent[i], "request": self.request[i],
                    "name": self.names[self.span_name[i]], "start_ns": self.start[i],
                    "end_ns": self.end[i], "work": self.work[i], "raised": self.raised[i],
                }) + "\n")


def self_times(start: list[int], end: list[int], parent: list[int]) -> list[int]:
    """Each span's duration minus the union of its children's intervals (clipped to it)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        covered, reach = 0, start[i]
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            lo, hi = max(start[c], reach), min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[i] - start[i] - covered)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(tr: Tracer, request_formats: dict[int, str], output_bytes: int,
                  clamp_warnings: int) -> dict[str, float]:
    """Counts, busy and self times per layer from the recorded spans."""
    selfs = self_times(tr.start, tr.end, tr.parent)
    names = [tr.names[k] for k in tr.span_name]
    layer = [n.split(".", 1)[0] for n in names]
    dur_ms = [(e - s) / 1e6 for s, e in zip(tr.start, tr.end)]
    self_ms = [x / 1e6 for x in selfs]

    def spans(prefix):
        return [i for i, n in enumerate(names) if n == prefix or n.startswith(prefix + "[")]

    def entries(lay):  # spans entered from outside their layer
        return [i for i in range(len(names)) if layer[i] == lay
                and (tr.parent[i] < 0 or layer[tr.parent[i]] != lay)]

    def busy(lay):
        return sum(self_ms[i] for i in range(len(names)) if layer[i] == lay)

    m: dict[str, float] = {}
    main = spans("cli.main")
    parse = {i: 0.0 for i in main}
    for i in spans("cli.build_parser") + spans("cli.resolve_config"):
        if tr.parent[i] in parse:
            parse[tr.parent[i]] += dur_ms[i]
    m["cli.requests"] = len(main)
    m["cli.parse_ms_p50"] = _median(list(parse.values()))
    for fmt in ("json", "csv", "table"):
        m[f"cli.self_ms_p50.{fmt}"] = _median(
            [self_ms[i] for i in main if request_formats.get(tr.request[i]) == fmt])
    m["cli.output_bytes"] = output_bytes

    solves = spans("spectrum.solve_bound_state")
    solve_ms = [dur_ms[i] for i in solves]
    m["spectrum.solve_calls"] = len(solves)
    m["spectrum.solve_ms_p50"] = _median(solve_ms)
    m["spectrum.solve_ms_p90"] = _p90(solve_ms)
    m["spectrum.solve_busy_ms"] = sum(solve_ms)
    points = sum(tr.work[i] for i in solves)
    m["spectrum.grid_points_per_s"] = points / (sum(solve_ms) / 1e3) if solve_ms else 0.0
    m["spectrum.confinement_ms_p50"] = _median([dur_ms[i] for i in spans("spectrum.confinement_report")])
    m["spectrum.errors"] = sum(1 for i in range(len(names)) if layer[i] == "spectrum" and tr.raised[i])

    ball = [i for i in spans("stressfield.near_field_potential") if names[i].endswith("[UniformBall]")]
    table = [i for i in spans("stressfield.near_field_potential") if names[i].endswith("[RadialTable]")]
    near_points = len(ball) + len(table)
    m["stressfield.near_field_calls"] = near_points
    m["stressfield.kernel_calls"] = len(spans("stressfield.radial_reduce_inverse")) + len(
        spans("stressfield.radial_reduce_linear"))
    m["stressfield.far_field_calls"] = len(spans("stressfield.far_field_coupling"))
    m["stressfield.ball_us_per_point"] = 1e3 * sum(dur_ms[i] for i in ball) / len(ball) if ball else 0.0
    m["stressfield.table_us_per_point"] = 1e3 * sum(dur_ms[i] for i in table) / len(table) if table else 0.0
    m["stressfield.table_build_ms"] = sum(dur_ms[i] for i in spans("stressfield.load_source_csv"))
    m["stressfield.clamp_warnings"] = clamp_warnings

    simpson = spans("quadrature.composite_simpson")
    m["quadrature.simpson_calls"] = len(simpson)
    m["quadrature.simpson_busy_ms"] = busy("quadrature")
    m["quadrature.simpson_calls_per_point"] = len(simpson) / near_points if near_points else 0.0

    for lay in ("potential", "estimator"):
        m[f"{lay}.calls"] = len(entries(lay))
        m[f"{lay}.busy_ms"] = busy(lay)
    m["trace.spans"] = len(tr)
    return m


# ---------------------------------------------------------------------------
# import probe


def parse_importtime(text: str) -> dict[str, float]:
    """Milliseconds of ``comptonqcd`` imports and of numpy within them, from ``-X importtime``.

    Each line reads ``import time: self | cumulative | <indent>name`` and a
    module's line follows those of the imports it triggered, so the lines
    before a top-level line (indent 0) are its subtree.
    """
    package_us = numpy_us = 0
    subtree: list[tuple[int, str, int]] = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        label = parts[2].rstrip("\n")
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        name = label.strip()
        if depth > 0:
            subtree.append((depth, name, cumulative))
            continue
        if name == "comptonqcd" or name.startswith("comptonqcd."):
            package_us += cumulative
            numpy_us += sum(c for d, n, c in subtree if n == "numpy")
        subtree = []
    return {"numpy_ms": numpy_us / 1e3, "comptonqcd_ms": (package_us - numpy_us) / 1e3}


def import_probe(root: str, env: dict, repeats: int) -> dict[str, float]:
    """Median of repeated bare-interpreter starts and ``-X importtime`` imports of the CLI."""
    bare, numpy_ms, package_ms = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True, timeout=60)
        bare.append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import comptonqcd.cli"],
                              cwd=root, env=env, check=True, capture_output=True, text=True, timeout=60)
        parsed = parse_importtime(proc.stderr)
        numpy_ms.append(parsed["numpy_ms"])
        package_ms.append(parsed["comptonqcd_ms"])
    return {
        "import.interpreter_ms": statistics.median(bare),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.comptonqcd_ms": statistics.median(package_ms),
    }
