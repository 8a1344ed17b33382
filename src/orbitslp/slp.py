"""Straight-line programs: a branch-free, loop-free instruction list.

A program with input arity m runs on a tape whose cells -m..-1 hold the
inputs; instruction i writes cell i, and the outputs are the final
``output_arity`` cells.  Operands are addressed by strictly positive
backward offsets (instruction i with offset j reads cell i - j), which is
what makes composition plain list concatenation: appended instructions keep
their offsets and transparently pick up the inner program's tail cells.

Programs are validated on construction and immutable afterwards; one
program may be executed concurrently from many threads, each execution
using its own tape.
"""

import json

from .field import field_from_json

OP_ADD = 0
OP_SUB = 1
OP_MUL = 2
OP_QINV = 3
OP_CONST = 4
OP_RECALL = 5

OP_NAMES = ("add", "sub", "mul", "qinv", "const", "recall")
_BINARY = (OP_ADD, OP_SUB, OP_MUL)
_UNARY = (OP_QINV, OP_RECALL)


class ProgramError(ValueError):
    """Malformed program: bad arity, bad opcode, or out-of-range offset."""


class Program:
    __slots__ = ("field", "input_arity", "instructions", "output_arity")

    def __init__(self, field, input_arity, instructions, output_arity):
        self.field = field
        self.input_arity = int(input_arity)
        self.instructions = tuple(tuple(ins) for ins in instructions)
        self.output_arity = int(output_arity)
        self.validate()

    def __len__(self):
        return len(self.instructions)

    def __repr__(self):
        return (f"Program({self.field!r}, in={self.input_arity}, "
                f"len={len(self.instructions)}, out={self.output_arity})")

    def validate(self):
        m = self.input_arity
        if m < 0:
            raise ProgramError("negative input arity")
        if not 0 <= self.output_arity <= len(self.instructions):
            raise ProgramError("output arity exceeds program length")
        for i, ins in enumerate(self.instructions):
            op = ins[0]
            if op in _BINARY:
                if len(ins) != 3:
                    raise ProgramError(f"instruction {i}: expected two offsets")
                offsets = ins[1:]
            elif op in _UNARY:
                if len(ins) != 2:
                    raise ProgramError(f"instruction {i}: expected one offset")
                offsets = ins[1:]
            elif op == OP_CONST:
                if len(ins) != 2:
                    raise ProgramError(f"instruction {i}: expected one constant")
                offsets = ()
            else:
                raise ProgramError(f"instruction {i}: unknown opcode {op!r}")
            for j in offsets:
                if not isinstance(j, int) or j < 1:
                    raise ProgramError(f"instruction {i}: offset {j!r} not a positive int")
                if i - j < -m:
                    raise ProgramError(
                        f"instruction {i}: offset {j} reaches cell {i - j}, "
                        f"before input cell {-m}")


def execute(prog, inputs):
    """Run the program; returns the final output_arity tape cells."""
    return _run(prog, inputs, prog.instructions)


def execute_trace(prog, inputs):
    """Like execute, but also records the instruction pointer trace.

    Returns (outputs, trace) where trace lists (position, opcode) in the
    order the interpreter fetched them; comparing traces across inputs
    demonstrates branch-freedom.
    """
    trace = []

    def fetch():
        for i, ins in enumerate(prog.instructions):
            trace.append((i, ins[0]))
            yield ins

    return _run(prog, inputs, fetch()), trace


def _run(prog, inputs, instructions):
    """The interpreter loop: runs the instructions in the order the iterable
    `instructions` yields them."""
    m = prog.input_arity
    if len(inputs) != m:
        raise ProgramError(f"expected {m} inputs, got {len(inputs)}")
    f = prog.field
    add, sub, mul, qinv = f.add, f.sub, f.mul, f.qinv
    tape = list(inputs)
    pos = m
    for ins in instructions:
        op = ins[0]
        if op == OP_ADD:
            v = add(tape[pos - ins[1]], tape[pos - ins[2]])
        elif op == OP_SUB:
            v = sub(tape[pos - ins[1]], tape[pos - ins[2]])
        elif op == OP_MUL:
            v = mul(tape[pos - ins[1]], tape[pos - ins[2]])
        elif op == OP_QINV:
            v = qinv(tape[pos - ins[1]])
        elif op == OP_CONST:
            v = ins[1]
        else:  # OP_RECALL
            v = tape[pos - ins[1]]
        tape.append(v)
        pos += 1
    return tape[len(tape) - prog.output_arity:] if prog.output_arity else []


def compose(outer, inner, d=None):
    """Single program computing outer applied to the last d cells of inner.

    Plain concatenation: the outer instructions' offsets already point at
    the inner program's tail once the lists are joined.
    """
    if d is None:
        d = outer.input_arity
    if outer.input_arity != d:
        raise ProgramError(
            f"outer expects {outer.input_arity} inputs, composition supplies {d}")
    if d > len(inner):
        raise ProgramError(f"inner program is shorter ({len(inner)}) than d={d}")
    if outer.field != inner.field:
        raise ProgramError("cannot compose programs over different fields")
    return Program(inner.field, inner.input_arity,
                   inner.instructions + outer.instructions, outer.output_arity)


def identity_program(field, d):
    """d-input, d-output pass-through (recall offsets all equal d)."""
    return Program(field, d, [(OP_RECALL, d)] * d, d)


def census(prog):
    """Exact per-opcode instruction counts plus the total length."""
    counts = dict.fromkeys(OP_NAMES, 0)
    for ins in prog.instructions:
        counts[OP_NAMES[ins[0]]] += 1
    counts["total"] = len(prog.instructions)
    return counts


class ProgramBuilder:
    """Emits instructions using absolute cell handles.

    Cells are absolute tape positions (inputs are negative ints); emission
    converts them to backward offsets.  Constants are pooled so each
    distinct value is materialized once per program, and a few structural
    identities (x*0, x*1, x-x, qinv of 0 or 1) are folded at build time.
    Folding depends only on the cell graph, never on runtime values, so
    emitted programs stay input-independent.
    """

    def __init__(self, field, input_arity):
        self.field = field
        self.input_arity = input_arity
        self._instrs = []
        self._consts = {}
        self._zero = None
        self._one = None

    @property
    def position(self):
        return len(self._instrs)

    def inputs(self):
        return list(range(-self.input_arity, 0))

    def _emit1(self, op, a):
        i = len(self._instrs)
        self._instrs.append((op, i - a))
        return i

    def _emit2(self, op, a, b):
        i = len(self._instrs)
        self._instrs.append((op, i - a, i - b))
        return i

    def const(self, value):
        v = self.field.coerce(value)
        key = self.field.fmt(v)
        cell = self._consts.get(key)
        if cell is None:
            cell = len(self._instrs)
            self._instrs.append((OP_CONST, v))
            self._consts[key] = cell
        return cell

    @property
    def zero(self):
        if self._zero is None:
            self._zero = self.const(self.field.zero)
        return self._zero

    @property
    def one(self):
        if self._one is None:
            self._one = self.const(self.field.one)
        return self._one

    def is_zero_cell(self, cell):
        return self._zero is not None and cell == self._zero

    def _is_one(self, cell):
        return self._one is not None and cell == self._one

    def add(self, a, b):
        if self.is_zero_cell(a):
            return b
        if self.is_zero_cell(b):
            return a
        return self._emit2(OP_ADD, a, b)

    def sub(self, a, b):
        if self.is_zero_cell(b):
            return a
        if a == b:
            return self.zero
        return self._emit2(OP_SUB, a, b)

    def mul(self, a, b):
        if self.is_zero_cell(a) or self.is_zero_cell(b):
            return self.zero
        if self._is_one(a):
            return b
        if self._is_one(b):
            return a
        return self._emit2(OP_MUL, a, b)

    def qinv(self, a):
        if self.is_zero_cell(a) or self._is_one(a):
            return a
        return self._emit1(OP_QINV, a)

    def recall(self, a):
        return self._emit1(OP_RECALL, a)

    def finish(self, outputs):
        """Recall the given cells in order; they become the outputs."""
        for c in outputs:
            self.recall(c)
        return Program(self.field, self.input_arity, self._instrs, len(outputs))


_DICT_KEYS = frozenset(
    ("field", "input_arity", "output_arity", "instructions", "constants"))


def program_to_dict(prog):
    """JSON form: {field, input_arity, output_arity, instructions, constants}.

    Constants are pooled canonical strings; const instructions carry the
    pool index.  Round-trips bit-exactly.
    """
    constants = []
    index = {}
    instrs = []
    for ins in prog.instructions:
        if ins[0] == OP_CONST:
            text = prog.field.fmt(ins[1])
            pos = index.get(text)
            if pos is None:
                pos = len(constants)
                constants.append(text)
                index[text] = pos
            instrs.append([OP_CONST, pos])
        else:
            instrs.append([int(x) for x in ins])
    return {
        "field": prog.field.to_json(),
        "input_arity": prog.input_arity,
        "output_arity": prog.output_arity,
        "instructions": instrs,
        "constants": constants,
    }


def program_from_dict(obj):
    """Inverse of program_to_dict; a malformed dict raises ProgramError."""
    if not isinstance(obj, dict) or not _DICT_KEYS <= obj.keys():
        raise ProgramError(f"a program needs the keys {', '.join(sorted(_DICT_KEYS))}")
    field = field_from_json(obj["field"])
    try:
        # a dict pool refuses negative indices too
        pool = dict(enumerate(field.parse(text) for text in obj["constants"]))
        instrs = [(OP_CONST, pool[ins[1]]) if ins[0] == OP_CONST else tuple(ins)
                  for ins in obj["instructions"]]
        return Program(field, obj["input_arity"], instrs, obj["output_arity"])
    except KeyError as exc:
        raise ProgramError(f"malformed program: no constant {exc} "
                           f"in the pool of {len(pool)}") from None
    except (AttributeError, IndexError, TypeError) as exc:
        raise ProgramError(f"malformed program: {exc}") from None


def dumps(prog):
    return json.dumps(program_to_dict(prog), sort_keys=True, separators=(",", ":"))


def save_program(prog, path):
    with open(path, "w") as fh:
        fh.write(dumps(prog))
        fh.write("\n")


def load_program(path):
    with open(path) as fh:
        return program_from_dict(json.load(fh))
