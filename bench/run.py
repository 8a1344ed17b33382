"""Benchmark for orbitslp: compile the corpus, classify over QQ, CLI separate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one process, one closed-loop caller, no threads; set-ups are
spread over the measuring window, ops run in between):

  compile-corpus      one op compiles, saves and loads back every corpus
                      action, then checks cyclic3/GF(7) on a 5x5 grid
                      against brute-force orbit enumeration
  classify-qq         one op is separate(sep, p, q) with the diag(z1^2, z1)
                      separator over QQ, checked against the torus invariant
  cli-separate-gf101  one op is `orbitslp separate FILE --p .. --q ..`
                      in-process over GF(101), exit code checked likewise

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a run whose first
half is traced (see tracing.py) and whose second half is not, the difference
of their op medians being the tracing overhead.  Every wrong verdict,
exception or determinism mismatch is a failed op, and the exit code is 1
when any op failed.  `--workload all` runs the three in turn.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

try:
    import corpus
    from tracing import Tracer
except ImportError as exc:
    sys.exit(f"error: cannot import orbitslp from this checkout: {exc}")

from orbitslp import QQ, cli, compiler  # noqa: E402

WORKLOADS = ("compile-corpus", "classify-qq", "cli-separate-gf101")
SETUP_REPEATS = {"compile-corpus": 8, "classify-qq": 5, "cli-separate-gf101": 5}
TAIL_BEYOND = 10

# (name, unit) in print order
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
    ("op_tail_s", "s"), ("compile_s", "s"), ("load_s", "s"),
    ("program_instructions", "count"), ("separator_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
)
# per-layer time metrics: (span name, metric, self time rather than total)
LAYER_TIMES = (
    ("linalg.trref", "linalg.trref_s", True),
    ("linalg.kernel", "linalg.kernel_s", True),
    ("linalg.collect", "linalg.collect_s", True),
    ("groebner.buchberger", "groebner.buchberger_s", True),
    ("groebner.ideal_k_basis", "groebner.ideal_k_basis_s", True),
    ("groebner.hilbert_leq", "groebner.hilbert_leq_s", True),
    ("polynomials.parse", "polynomials.parse_s", True),
    ("polynomials.monomial_index", "polynomials.monomial_index_s", True),
    ("compiler.compile", "compiler.compile_self_s", True),
    ("slp.validate", "slp.validate_s", True),
    ("slp.json_decode", "slp.json_decode_s", True),
    ("slp.from_dict", "slp.from_dict_s", True),
    ("slp.to_dict", "slp.to_dict_s", True),
    ("slp.json_encode", "slp.json_encode_s", True),
    ("slp.execute", "slp.execute_s", True),
    ("cli.load", "cli.load_s", False),
    ("cli.eval", "cli.eval_s", False),
)
CENSUS = ("add", "sub", "mul", "qinv", "const", "recall")


class Recorder:
    """Attempted and failed counts, plus the tracer while one is active."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def phase(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def drive(rec, work, seconds, setups):
    """Closed loop over a window of `seconds`, one caller.

    `setups` set-ups are spread evenly over the window, the first at its
    start, so their median does not hang on one moment of a noisy machine;
    ops run in between.  No op starts that the median op so far would carry
    past the window.  Each set-up and op starts from a collected heap.
    Returns the set-up durations and the durations of the successful ops.
    """
    setup_times, op_times, durations = [], [], []
    start = perf_counter()
    deadline = start + seconds
    while True:
        now = perf_counter()
        overrun = bool(durations) and now + statistics.median(durations) > deadline
        if len(setup_times) < setups and (
                overrun or now >= start + len(setup_times) * seconds / setups):
            gc.collect()
            with rec.phase("bench.setup"):
                _, dt = timed(work.setup)
            setup_times.append(dt)
            continue
        if overrun or (durations and now >= deadline):
            return setup_times, op_times
        gc.collect()
        t0 = perf_counter()
        try:
            with rec.phase("bench.op"):
                ok, what = work.op()
        except Exception as exc:  # a failing op is counted, never fatal
            ok, what = False, f"{type(exc).__name__}: {exc}"
        durations.append(perf_counter() - t0)
        if rec.check(ok, what):
            op_times.append(durations[-1])


# ---------------------------------------------------------------------------
# workloads: setup() prepares inputs, op() -> (ok, message)

class CompileCorpus:
    """Set-up parses the corpus specs and the cyclic3 grid's verdicts; one op
    compiles, saves and loads back every corpus action."""

    def __init__(self, seed, tmp, rec):
        self.seed = seed
        self.tmp = tmp
        self.rec = rec
        self.reference = {}      # name -> (instructions, bytes, sha256)
        self.compile_times = []
        self.load_times = []

    def setup(self):
        self.actions = corpus.parse_corpus()
        cyclic = next(a for a in self.actions if a.name == "cyclic3-gf7")
        self.points, self.expected = corpus.cyclic3_grid(
            random.Random(self.seed), cyclic)

    def op(self):
        compile_t = load_t = 0.0
        problems = []
        for action in self.actions:
            sep, dt = timed(compiler.compile_separator, action.group, action.rep)
            compile_t += dt
            path = self.tmp / f"{action.name}.json"
            sep.save(path)
            back, dt = timed(compiler.CompiledSeparator.load, path)
            load_t += dt
            saved = path.read_bytes()
            record = (len(sep.program), len(saved), corpus.sha256(saved))
            if self.reference.setdefault(action.name, record) != record:
                problems.append(f"{action.name}: {record} differs from the "
                                f"first pass {self.reference[action.name]}")
            if (back.program.instructions != sep.program.instructions
                    or back.meta != sep.meta):
                problems.append(f"{action.name}: load does not round-trip")
            if action.name == "cyclic3-gf7":
                problems.extend(self._check_grid(back))
        self.compile_times.append(compile_t)
        self.load_times.append(load_t)
        return not problems, "; ".join(problems)

    def _check_grid(self, sep):
        sigs = [compiler.evaluate(sep, p) for p in self.points]
        return [f"cyclic3-gf7: {p} vs {q} expected same={same}"
                for p, sp, row in zip(self.points, sigs, self.expected)
                for q, sq, same in zip(self.points, sigs, row)
                if (sp == sq) != same]

    def count_rows(self):
        """Cross-process determinism check; prints and returns the count table.

        A child process with another hash seed compiles the corpus again and
        must produce the same bytes as every pass here.
        """
        env = dict(os.environ, PYTHONHASHSEED=str(1 + self.seed % 4294967294))
        proc = subprocess.run(
            [sys.executable, str(Path(corpus.__file__)), str(self.tmp / "child")],
            env=env, capture_output=True, text=True, timeout=150)
        if not self.rec.check(proc.returncode == 0, f"count table: {proc.stderr}"):
            return []
        table = json.loads(proc.stdout.splitlines()[-1])
        mismatched = [name for name, rec in self.reference.items()
                      if name not in table or rec != (table[name]["instructions"],
                                                       table[name]["separator_bytes"],
                                                       table[name]["sha256"])]
        self.rec.check(not mismatched,
                       f"a process with another hash seed compiled {mismatched} "
                       "differently")
        print(corpus.format_table(table))
        return list(table.values())

    def sizes(self):
        return (sum(r[0] for r in self.reference.values()),
                sum(r[1] for r in self.reference.values()))


class Diag21:
    """Set-up compiles, saves and loads the diag(z1^2, z1) separator; the
    seeded pair stream runs on across set-ups."""

    field = None
    name = None

    def __init__(self, seed, tmp, rec):
        self.path = tmp / f"{self.name}.json"
        self.rec = rec
        self.pairs = corpus.torus_pairs(random.Random(seed), self.field)
        self.sep = self.saved = None
        self.compile_times = []
        self.load_times = []

    def setup(self):
        self.sep = None
        action = corpus.diag21_action(self.field)
        sep, compile_t = timed(compiler.compile_separator, action.group, action.rep)
        sep.save(self.path)
        self.sep, load_t = timed(compiler.CompiledSeparator.load, self.path)
        saved = self.path.read_bytes()
        self.rec.check(self.sep.program.instructions == sep.program.instructions
                       and self.sep.meta == sep.meta,
                       f"{self.name}: load does not round-trip")
        if self.saved is not None:
            self.rec.check(saved == self.saved,
                           f"{self.name}: recompiling gave different bytes")
        self.saved = saved
        self.compile_times.append(compile_t)
        self.load_times.append(load_t)

    def count_rows(self):
        return [corpus.count_row(self.sep, self.saved)]

    def sizes(self):
        return len(self.sep.program), len(self.saved)


class ClassifyQQ(Diag21):
    field = QQ
    name = "diag21-qq"

    def op(self):
        p, q, same = next(self.pairs)
        got = compiler.separate(self.sep, p, q)
        return got == same, f"{p} vs {q}: separate gave {got}, oracle {same}"


class CliSeparateGF101(Diag21):
    field = corpus.GF101
    name = "diag21-gf101"

    def op(self):
        p, q, same = next(self.pairs)
        argv = ["separate", str(self.path), "--p", ",".join(map(str, p)),
                "--q", ",".join(map(str, q))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        expected = cli.EXIT_SAME if same else cli.EXIT_DIFFERENT
        return code == expected, f"{argv}: exit {code}, oracle {expected}: {out.getvalue()}"


CLASSES = {"compile-corpus": CompileCorpus, "classify-qq": ClassifyQQ,
           "cli-separate-gf101": CliSeparateGF101}


# ---------------------------------------------------------------------------
# reporting

def tail(times):
    """Highest percentile at or above p50 with TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND samples no such percentile exists and
    the maximum stands in.  Returns (value, percentile).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def count_metrics(rows):
    """Per-layer instruction counts summed over the workload's separators."""
    def phase(key):
        return sum(r["phase_totals"].get(key, 0) for r in rows)
    out = {
        "linalg.trref_instructions": phase("trref"),
        "linalg.kernel_instructions": phase("kernel"),
        "linalg.collect_instructions": phase("collect"),
        "linalg.max_matrix_cells": max((r["max_matrix_cells"] for r in rows), default=0),
        "compiler.setup_instructions": phase("setup"),
        "compiler.products_instructions": phase("products"),
        "compiler.signature_length": sum(r["signature_length"] for r in rows),
    }
    for op in CENSUS:
        out[f"slp.census.{op}"] = sum(r["census"][op] for r in rows)
    return out


def layer_metrics(tracer, traced, untraced, rows):
    """Per-layer metrics of a traced run.

    Span times are per set-up for spans under set-up and per op for spans
    under an op, summed: the layer's cost in one set-up plus one op.
    """
    agg = tracer.self_times()
    roots = {root: agg[(root, root)][0] for root in ("bench.setup", "bench.op")
             if (root, root) in agg}
    out = {}
    for span, metric, use_self in LAYER_TIMES:
        out[metric] = sum(v[2 if use_self else 1] / roots[root]
                          for (root, name), v in agg.items() if name == span)
    executed = list(tracer.executed.values())
    out["slp.ns_per_instruction"] = (1e9 * sum(e[1] for e in executed)
                                     / sum(e[0] for e in executed))
    counts = tracer.field_counts
    out["field.ops_per_eval"] = counts["calls"] / counts["evals"]
    out["field.zero_operand_share"] = counts["zero_operand"] / counts["calls"]
    out.update(count_metrics(rows))
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print("span self times (per set-up + per op):")
    for (root, name), (n, total, own) in sorted(agg.items()):
        print(f"  {root:<12} {name:<28} calls={n:<6} total={total:.6f}s "
              f"self={own:.6f}s")
    for field, (instructions, seconds) in sorted(tracer.executed.items()):
        print(f"  execute over {field}: {instructions} instructions, "
              f"{1e9 * seconds / instructions:.1f} ns each")
    print(f"  tracing overhead per op: {out['trace.overhead_s']:.6f}s "
          f"(traced p50 {statistics.median(traced):.6f}s over {len(traced)} ops, "
          f"untraced p50 {statistics.median(untraced):.6f}s over {len(untraced)} ops)")
    return out


def run_workload(name, seed, seconds, trace, tmp):
    rec = Recorder()
    work = CLASSES[name](seed, tmp, rec)
    if not trace:
        setup_times, times = drive(rec, work, seconds, SETUP_REPEATS[name])
    else:
        rec.tracer = Tracer()
        with rec.tracer.install():
            _, times = drive(rec, work, seconds / 2, 1)
        tracer, rec.tracer = rec.tracer, None
        _, untraced = drive(rec, work, seconds / 2, 0)
    rows = work.count_rows() if trace or name == "compile-corpus" else []
    if not times or (trace and not untraced):
        print(f"{name}: no op succeeded", file=sys.stderr)
        return False

    if trace:
        metrics = layer_metrics(tracer, times, untraced, rows)
        units = {m: ("s" if m.endswith("_s") else "ns" if m.endswith("instruction")
                     else "share" if m.endswith("share") else "count")
                 for m in metrics}
    else:
        instructions, nbytes = work.sizes()
        tail_s, pct = tail(times)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(times) / sum(times),
            "op_p50_s": statistics.median(times), "op_tail_s": tail_s,
            "compile_s": statistics.median(work.compile_times),
            "load_s": statistics.median(work.load_times),
            "program_instructions": instructions, "separator_bytes": nbytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        print(f"{name}: seed {seed}, {len(times)} ops, {len(setup_times)} set-ups; "
              f"op_tail_s is p{pct:.1f} "
              f"({TAIL_BEYOND if pct < 100 else 0} samples beyond it)")
    for metric, value in metrics.items():
        print(f"  {metric:<32} {value:>16.6f} {units[metric]}"
              if isinstance(value, float) else
              f"  {metric:<32} {value:>16} {units[metric]}")
    print(f"  {'failed_share':<32} {rec.failed / rec.attempted:>16.6f} "
          f"({rec.failed}/{rec.attempted})")
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    print(json.dumps(result))
    return rec.failed == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = corpus.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        ok = [run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
              for name in names]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
