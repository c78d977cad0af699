"""One fresh interpreter: set up the program, then run one round of a workload.

    python worker.py <workload> <seed> <setup|timed|traced> [spans-file]

Prints one JSON object.  `setup` stops after the cold start.  `timed`
runs the workload's operation list with plain calls; `traced` runs the
same calls with a span around each, adds the stage calls and a layer
probe, and reports the per-layer sums.  Every time is converted to
nominal seconds with the reference kernels timed beside it (see speed.py).
"""

import os
import sys
import time

import speed

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))


def _cold_start(tracer):
    """Import the package and its CLI, load the table; nominal and raw seconds."""
    speed.reference_time()  # let the interpreter specialise the kernels first
    before = speed.reference_time()
    t0 = time.perf_counter()
    import twobridge.cli  # noqa: F401
    from twobridge.table import load_table

    if tracer is None:
        load_table()
    else:
        tracer.call("table.load", load_table)
    raw = time.perf_counter() - t0
    scale = 2 * speed.NOMINAL_REF_S / (before + speed.reference_time())
    return raw * scale, raw, scale


def _plain_call(_name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans (op, id, parent, name, start, end) kept in memory, and counts read off results."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = -1  # -1 is the cold start
        self.parent = None

    def call(self, name, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        parent, self.parent = self.parent, sid
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            self.parent = parent
            self.spans[sid] = (self.op, sid, parent, name, t0, t1)
        for metric, value in _counts(name, result):
            self.counts[metric] = self.counts.get(metric, 0) + value
        return result


def _counts(name, result):
    """Work counts derived from the value a layer call returned."""
    if name == "core.seed":
        return [("core.seed_coeffs", len(result.coefficients))]
    if name == "reduction.reduce":
        rules = [step.rule.value for step, _ in result[1].steps]
        return [
            ("reduction.calls", 1),
            ("reduction.steps", len(rules)),
            ("reduction.steps_zero", rules.count("RemoveZero")),
            ("reduction.steps_unit", rules.count("RemoveUnit")),
            ("reduction.steps_block", rules.count("RemoveBlock")),
        ]
    if name == "invariants.report":
        return [("invariants.reports", 1)]
    if name == "invariants.even":
        return [("invariants.even_coeffs", len(result.coefficients))]
    if name == "conway.diagram":
        return [("conway.regions", len(result.twist_regions))]
    if name == "diagram.depth":
        return [("diagram.depth_calls", 1)]
    if name == "diagram.closure":
        return [("diagram.closure_size", len(result.expansions))]
    if name == "table.lookup":
        return [("table.lookups", 1)]
    if name == "cli.main":
        return [("cli.commands", 1), ("cli.stdout_bytes", len(result[1].encode()))]
    return []


def main(argv):
    workload_name, seed, mode = argv[1], int(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    tracer = Tracer() if mode == "traced" else None
    setup_s, setup_raw_s, setup_scale = _cold_start(tracer)

    import json
    import resource
    from functools import partial

    from workloads import WORKLOADS, layer_probe

    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    workload = WORKLOADS[workload_name]
    specs = workload.inputs(seed)
    if tracer is None:
        run_op = partial(workload.op, _plain_call)
    else:
        run_op = partial(tracer.call, "op", workload.op, tracer.call)
    latencies = [None] * len(specs)  # nominal seconds; None marks a failed operation
    raw = [0.0] * len(specs)
    scales = {-1: setup_scale}
    errors = []
    failures = []

    prev_ref = speed.reference_time()
    segment_start = 0
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = run_op(spec)
        except Exception as exc:  # the operation failed; counted, not fatal
            result = exc
        raw[i] = time.perf_counter() - t0
        if isinstance(result, Exception):
            failures.append(f"{type(result).__name__} in operation {i}")
        else:
            try:
                if tracer is not None:
                    tracer.call("stages", workload.stages, tracer.call, spec)
                error = workload.check(spec, result)
            except Exception as exc:  # an output the check cannot read is a wrong output
                error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                errors.append(f"operation {i}: {error}")
            latencies[i] = raw[i]
        if (i + 1) % workload.segment == 0 or i == len(specs) - 1:
            ref = speed.reference_time()
            scale = 2 * speed.NOMINAL_REF_S / (prev_ref + ref)
            for j in range(segment_start, i + 1):
                scales[j] = scale
                if latencies[j] is not None:
                    latencies[j] *= scale
            prev_ref = ref
            segment_start = i + 1

    out.update(
        tail=workload.tail,
        attempted=len(specs),
        failed=len(failures),
        failures=failures[:5],
        errors=errors[:5],
        latencies=latencies,
        run_s=sum(r * scales[i] for i, r in enumerate(raw)),
        run_raw_s=sum(raw),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        probe = len(specs)
        tracer.op = probe
        before = speed.reference_time()
        tracer.call("probe", layer_probe, tracer.call)
        scales[probe] = 2 * speed.NOMINAL_REF_S / (before + speed.reference_time())
        layer_s = {}
        op_s = []
        for op, _, _, name, t0, t1 in tracer.spans:
            if name == "op":
                op_s.append((t1 - t0) * scales[op])
            elif name not in ("stages", "probe"):
                layer_s[name + "_s"] = layer_s.get(name + "_s", 0.0) + (t1 - t0) * scales[op]
        out.update(layer_s=layer_s, counts=tracer.counts, op_s=op_s)
        if spans_path:
            with open(spans_path, "w") as f:
                for span in tracer.spans:
                    f.write(json.dumps(dict(zip(("op", "id", "parent", "name", "start", "end"), span))) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
