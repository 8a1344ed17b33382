"""Builders for branch-free linear algebra programs, plus branching oracles.

Every builder takes a field and a shape and emits a fixed Program; matrix
values never influence the emitted instructions.  The trick throughout is
the pivot indicator e = a*qinv(a), which is 1 where a is nonzero and 0
where it vanishes: conditional row swaps, pivot normalization, and the
recursion's column shift are all written as blends  (1-e)*x + e*y.

Matrices travel on the tape in row-major order.  The companion oracles
(classical branching Gaussian elimination) are the independent reference
implementations the builders are tested against.
"""

from .slp import ProgramBuilder


# ---------------------------------------------------------------------------
# cell-level cores, shared with the orbit compiler

def cascade_cells(b, rows):
    """Conditional swap chain: rows 2..m swap into row 1 while its lead is 0.

    Afterwards either the first entry is nonzero or the whole first column
    is zero.  Returns the new cell matrix; untouched rows keep their cells.
    """
    m = len(rows)
    n = len(rows[0])
    rows = [list(r) for r in rows]
    for i in range(1, m):
        x11 = rows[0][0]
        inv = b.qinv(x11)
        q = b.mul(x11, inv)          # 1 iff current lead is nonzero
        s = b.sub(b.one, q)
        t = b.mul(s, rows[i][0])
        top = [b.add(x11, t)]
        oth = [b.sub(rows[i][0], t)]
        for j in range(1, n):
            d = b.sub(rows[i][j], rows[0][j])
            top.append(b.add(rows[0][j], b.mul(s, d)))
            oth.append(b.add(rows[0][j], b.mul(q, d)))
        rows[0] = top
        rows[i] = oth
    return rows


def trref_cells(b, rows):
    """Triangular reduced row echelon form of an m x n cell matrix.

    Returns an n x n cell grid: row j is the echelon pivot row for column j
    when the diagonal entry is 1, and all zeros otherwise.
    """
    m = len(rows)
    n = len(rows[0])
    rows = cascade_cells(b, rows)
    a11 = rows[0][0]
    inv = b.qinv(a11)
    e = b.mul(a11, inv)              # 1 iff column 1 has a pivot
    if n == 1:
        return [[e]]
    s = b.sub(b.one, e)
    scale = b.add(s, inv)            # divides the top row when e = 1
    top = [e] + [b.mul(scale, rows[0][j]) for j in range(1, n)]
    # clear the first column below the pivot (no-op when e = 0)
    low = []
    for i in range(1, m):
        t = b.mul(rows[i][0], e)
        low.append([b.sub(rows[i][j], b.mul(top[j], t)) for j in range(1, n)])
    # recurse on columns 2..n: all rows when e = 0, eliminated rows when e = 1
    keep = [top[1:]] + low
    shifted = low + [[b.zero] * (n - 1)]
    blend = [[b.add(b.mul(s, keep[i][j]), b.mul(e, shifted[i][j]))
              for j in range(n - 1)] for i in range(m)]
    sub_grid = trref_cells(b, blend)
    grid = [list(top)] + [[b.zero] + sub_grid[i] for i in range(n - 1)]
    # reduce the top row against the pivot rows below; the sum reads the
    # pre-reduction top-row values since pivot columns never overlap
    for j in range(1, n):
        acc = top[j]
        for k in range(1, j):
            acc = b.sub(acc, b.mul(b.mul(grid[k][k], top[k]), grid[k][j]))
        grid[0][j] = b.mul(b.sub(b.one, grid[j][j]), acc)
    return grid


def kernel_cells(b, grid):
    """Kernel rows from an n x n triangular echelon grid.

    Row j is (1 - r_jj) * (-r_1j, ..., 1 in slot j, ..., -r_nj): zero when
    column j has a pivot, otherwise the canonical nullspace vector for the
    free column j.
    """
    n = len(grid)
    out = []
    for j in range(n):
        s = b.sub(b.one, grid[j][j])
        row = []
        for i in range(n):
            if i == j:
                row.append(s)
            else:
                row.append(b.sub(b.zero, b.mul(s, grid[i][j])))
        out.append(row)
    return out


def collect_cells(b, flags, rows, limit=None):
    """Rows with flag 1 float to the front in order; vacated slots are zero.

    Extraction round k runs the swap cascade on the not-yet-extracted rows
    of the flag-augmented matrix and scales the surfaced row by its own
    flag, so rows that merely drifted up (flag 0) come out as zeros.  Emits
    `limit` rounds (default all m).
    """
    m = len(rows)
    n = len(rows[0])
    if limit is None:
        limit = m
    work = [[flags[i]] + list(rows[i]) for i in range(m)]
    out = []
    for k in range(limit):
        work[k:] = cascade_cells(b, work[k:])
        ind = work[k][0]
        out.append([b.mul(ind, work[k][j]) for j in range(1, n + 1)])
    return out


# ---------------------------------------------------------------------------
# program builders

def _matrix_program(field, m, n, emit, lead=0):
    """Program over `lead` leading cells, then an m x n row-major matrix.

    emit(b, lead_cells, rows) returns the output rows, which become the
    outputs in row-major order.
    """
    if m < 1 or n < 1:
        raise ValueError(f"matrix shape must be positive, got {m}x{n}")
    b = ProgramBuilder(field, lead + m * n)
    cells = b.inputs()
    rows = [cells[lead + i * n:lead + (i + 1) * n] for i in range(m)]
    return b.finish([c for row in emit(b, cells[:lead], rows) for c in row])


def row_swap_program(field, m, n, i):
    """Conditional swap of rows 1 and i (1-based, 2 <= i <= m).

    Input: m*n matrix cells; output: the m*n result.  The swap happens
    exactly when the original top-left entry is zero.
    """
    if not 2 <= i <= m:
        raise ValueError(f"row index {i} out of range 2..{m}")

    def emit(b, _, rows):
        rows[0], rows[i - 1] = cascade_cells(b, [rows[0], rows[i - 1]])
        return rows
    return _matrix_program(field, m, n, emit)


def swap_cascade_program(field, m, n):
    """Chain of conditional swaps pulling a nonzero lead entry to the top."""
    return _matrix_program(field, m, n, lambda b, _, rows: cascade_cells(b, rows))


def triangular_rref_program(field, m, n):
    """Branch-free triangular RREF: m*n inputs, n*n outputs.

    Output row j holds the echelon pivot row for column j (diagonal entry
    1) or zeros (diagonal entry 0); the diagonal reads off the pivot
    columns and its sum is the rank.
    """
    return _matrix_program(field, m, n, lambda b, _, rows: trref_cells(b, rows))


def collect_rows_program(field, m, n):
    """Inputs: indicator m-vector, then m*n matrix.  Outputs: m*n matrix
    with the indicated rows first (original order) over zero padding."""
    return _matrix_program(field, m, n, collect_cells, lead=m)


def kernel_program(field, n):
    """Canonical kernel rows from an n*n triangular echelon grid."""
    return _matrix_program(field, n, n, lambda b, _, rows: kernel_cells(b, rows))


def rref_program(field, m, n):
    """Classical RREF: m*n inputs, m*n outputs.

    The triangular grid's pivot rows, flagged by its diagonal, are collected
    to the top, then cropped or zero-padded to m rows.
    """
    def emit(b, _, rows):
        grid = trref_cells(b, rows)
        out = collect_cells(b, [grid[j][j] for j in range(n)], grid)
        return out[:m] + [[b.zero] * n for _ in range(n, m)]
    return _matrix_program(field, m, n, emit)


# ---------------------------------------------------------------------------
# classical branching oracles (reference implementations for tests)

def _rref_pivots(rows, field):
    a = [[field.coerce(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != field.zero), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.qinv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != field.zero:
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def oracle_rref(rows, field):
    """Classical reduced row echelon form (branching Gaussian elimination)."""
    a, _ = _rref_pivots(rows, field)
    return a


def oracle_rank(rows, field):
    return len(_rref_pivots(rows, field)[1])


def oracle_trref(rows, field):
    """Pivot rows of the RREF placed at their pivot-column index."""
    a, pivots = _rref_pivots(rows, field)
    n = len(rows[0])
    out = [[field.zero] * n for _ in range(n)]
    for i, c in enumerate(pivots):
        out[c] = a[i]
    return out


def oracle_nullspace(rows, field):
    """Canonical nullspace basis: one vector per free column, ascending.

    The vector for free column j has 1 in slot j and minus the pivot rows'
    column-j entries in the pivot slots.
    """
    a, pivots = _rref_pivots(rows, field)
    n = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [field.zero] * n
        v[j] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.sub(field.zero, a[i][j])
        basis.append(v)
    return basis
