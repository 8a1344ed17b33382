"""Span tracing from outside the library, for the benchmark's traced runs.

`Tracer.install()` replaces the layer entry points that `orbitslp.compiler`,
`orbitslp.cli` and `Program` call with timing wrappers, and puts back the
originals on exit.  Spans are kept in memory (name, start, end, parent) and
aggregated at the end; a span's self time is its duration minus the
durations of its direct children.  Nothing under `src/` knows about this.
"""

import json
import types
from contextlib import contextmanager
from time import perf_counter

from orbitslp import cli, compiler, slp

# (module, attribute, span name): module-level names the compiler and the CLI
# resolve at call time
PATCHES = (
    (compiler, "compile_separator", "compiler.compile"),
    (compiler, "buchberger", "groebner.buchberger"),
    (compiler, "ideal_k_basis", "groebner.ideal_k_basis"),
    (compiler, "hilbert_leq", "groebner.hilbert_leq"),
    (compiler, "parse_polynomial", "polynomials.parse"),
    (compiler, "MonomialIndex", "polynomials.monomial_index"),
    (compiler, "trref_cells", "linalg.trref"),
    (compiler, "kernel_cells", "linalg.kernel"),
    (compiler, "collect_cells", "linalg.collect"),
    (compiler, "program_to_dict", "slp.to_dict"),
    (compiler, "program_from_dict", "slp.from_dict"),
    (compiler, "execute", "slp.execute"),
    (compiler, "evaluate", "cli.eval"),
    (cli, "evaluate", "cli.eval"),
)


# instructions run a second time with a counting field per traced run: about
# four evaluations of the largest corpus separator
COUNT_BUDGET = 1_500_000


class CountingField:
    """Delegating field that counts arithmetic calls and zero operands."""

    def __init__(self, field, counts):
        self._field = field
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._field, name)

    def __repr__(self):
        return repr(self._field)

    def _count(self, *operands):
        self._counts["calls"] += 1
        if not all(operands):
            self._counts["zero_operand"] += 1

    def add(self, a, b):
        self._count(a, b)
        return self._field.add(a, b)

    def sub(self, a, b):
        self._count(a, b)
        return self._field.sub(a, b)

    def mul(self, a, b):
        self._count(a, b)
        return self._field.mul(a, b)

    def qinv(self, a):
        self._count(a)
        return self._field.qinv(a)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.field_counts = {"calls": 0, "zero_operand": 0, "evals": 0}
        self._count_budget = COUNT_BUDGET
        self.executed = {}       # field repr -> [instructions run, seconds]

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _traced_execute(self, fn):
        def execute(prog, inputs):
            start = perf_counter()
            with self.span("slp.execute"):
                out = fn(prog, inputs)
            entry = self.executed.setdefault(repr(prog.field), [0, 0.0])
            entry[0] += len(prog)
            entry[1] += perf_counter() - start
            if self._count_budget >= len(prog):
                # rerun a shallow copy whose field counts calls; trace.*
                # spans are left out of every layer's time
                self._count_budget -= len(prog)
                counted = object.__new__(slp.Program)
                for slot in slp.Program.__slots__:
                    setattr(counted, slot, getattr(prog, slot))
                counted.field = CountingField(prog.field, self.field_counts)
                with self.span("trace.count"):
                    fn(counted, inputs)
                self.field_counts["evals"] += 1
            return out
        return execute

    @contextmanager
    def install(self):
        """Wrap the layer entry points; restore everything on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        load = compiler.CompiledSeparator.__dict__["load"]
        validate = slp.Program.validate
        json_mod = compiler.json
        try:
            for mod, attr, name in PATCHES:
                original = getattr(mod, attr)
                if name == "slp.execute":
                    setattr(mod, attr, self._traced_execute(original))
                else:
                    setattr(mod, attr, self.wrap(name, original))
            compiler.CompiledSeparator.load = classmethod(
                self.wrap("cli.load", load.__func__))
            slp.Program.validate = self.wrap("slp.validate", validate)
            compiler.json = types.SimpleNamespace(
                load=self.wrap("slp.json_decode", json.load),
                dumps=self.wrap("slp.json_encode", json.dumps))
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
            compiler.CompiledSeparator.load = load
            slp.Program.validate = validate
            compiler.json = json_mod

    def self_times(self):
        """Per root phase and span name: [count, total seconds, self seconds].

        The phase of a span is the name of its outermost ancestor.  The time
        of trace.* spans is taken out of every ancestor; they are not listed.
        """
        n = len(self.spans)
        hidden = [0.0] * n       # trace.* time inside each span
        child = [0.0] * n        # effective time of each span's children
        for i in reversed(range(n)):  # children come after their parents
            name, start, end, parent = self.spans[i]
            if parent is None:
                continue
            if name.startswith("trace."):
                hidden[parent] += end - start
            else:
                hidden[parent] += hidden[i]
                child[parent] += end - start - hidden[i]
        roots = [None] * n
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            roots[i] = name if parent is None else roots[parent]
            if name.startswith("trace."):
                continue
            total = end - start - hidden[i]
            entry = out.setdefault((roots[i], name), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += total
            entry[2] += total - child[i]
        return out
