"""Small periodic lattices: transfer matrices and exact partition sums.

These are desk-scale sanity checks, not thermodynamics.  Each model is
summed two independent ways, and each route is the other's oracle:

* vertex model: trace(T^M) of the row transfer matrix, against a
  depth-first enumeration of the edge states.  T is built by a depth-first
  walk over the row's edges, last site first, that pushes each auxiliary
  state through the local R factors as a sparse integer vector once per
  shared row suffix; the first site keeps only the terms that close the
  trace.  No operator on the row space tensored with the auxiliary space
  is formed.  The partition sum runs the same walk on the
  charge-conserving entries of R only and takes sum_q trace(T_qq^M) over
  the charge sectors q (below);
* height (SOS) model: trace(T^M) of the height transfer matrix on the
  admissible periodic height rows inside a window, against a depth-first
  enumeration of the heights.

The enumerations assign one edge state or height at a time in a fixed
order.  Each vertex or face factor is applied at the depth where its last
variable is assigned, and a subtree is pruned at the first zero factor (a
zero entry of R, a non-adjacent pair of heights, a vanishing face weight);
a face weight is taken only behind the adjacency of its four edges.
They stay exhaustive: every configuration with a nonzero weight is visited.
The sizes stay small because the enumerations still grow exponentially in
the number of sites and the transfer matrices in the row length.  Commuting
transfer matrices are the operational meaning of exact solvability at this
scale.

Charge.  The charge of a basis index (x, c) of the fused operator is
x + c, the number of second basis vectors, and the charge of a row of
edges is the sum of its states.  R is graded: the row charge of a nonzero
entry minus its column charge is one of 0, 2, 4, ...; in the seven-vertex R
only the corner entry alpha^2 u (u + 1) changes it.  On the torus every edge
leaves one vertex and enters another, so the charge changes of all
vertices, none negative, sum to zero and each vanishes: only
charge-conserving entries, which do not involve alpha, reach a partition
sum, and trace(T^M) = sum_q trace(T_qq^M) (the conserved line number of
Baxter, 1982, ch. 8).  The converse is what the lattice cannot see: no
torus partition sum, by either route, detects an error in a
charge-changing entry.  Zeroing the alpha^2 u (u + 1) entry of ``r7v``
leaves every vertex partition sum, and the lattice benchmark's digest,
unchanged; the Yang-Baxter checks and the transfer matrices themselves
see it.

Conventions: the weight of a vertex is the matrix element with row index
(state above, state right) and column index (state below, state left); a row
transfer matrix is the auxiliary-space trace of the ordered product of
R-operators along the row, leftmost column first.  Heights sit on the
vertices of the N x M torus, and face (i, j) has the corners
a = h(i, j), b = h(i+1, j), b' = h(i, j+1), c = h(i+1, j+1).  N, M and the
edge orders n, m are integers, all at least 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exactcore import ExactMatrix, ScalarLike, mat_mul, rat, trace_product
from .fusion import check_fusion_orders, fuse_nm
from .sos import _over_common_denominator, _w_nm_sum_at, check_weight_domain
from .vertex import ModelParams, up_steps


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic N x M lattice for a model with edge orders (n, m).

    N, M, n and m must be integers, and all at least 1: below that there is
    no lattice or no fused operator, and the transfer and enumeration routes
    would disagree on what to return.
    """

    N: int
    M: int
    n: int
    m: int
    u: Fraction

    def __init__(self, N: int, M: int, n: int, m: int, u: ScalarLike):
        for name, value in (("N", N), ("M", M), ("n", n), ("m", m)):
            if int(value) != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if N < 1 or M < 1:
            raise ValueError(f"lattice size must be at least 1 x 1, got N = {N}, M = {M}")
        check_fusion_orders(n, m)
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "M", int(M))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "u", rat(u))


def _trace_power(t: ExactMatrix, periods: int) -> Fraction:
    """trace(t^periods) for periods >= 1.

    It is taken as sum_ij (t^(periods-1))_ij t_ji: the last product is
    never formed, only its diagonal is summed.
    """
    if periods == 1:
        return t.trace()
    power = t
    for _ in range(periods - 2):
        power = mat_mul(power, t)
    return trace_product(power, t)


def _local_entries(r: ExactMatrix, qdim: int, adim: int) -> list:
    """local[x][c] lists the nonzero entries (y, b, numerator) of row (x, c)
    of R's integer numerators: edge x to edge y, auxiliary state c to b."""
    num = r.numerators
    return [
        [
            [(y, b, v) for y in range(qdim) for b in range(adim) if (v := row[y * adim + b])]
            for row in num[x * adim : (x + 1) * adim]
        ]
        for x in range(qdim)
    ]


def _transfer_walk(N: int, local: list, rows: list, place) -> None:
    """Add the integer numerators of T = tr_aux(R_{N-1,a} ... R_{0a}),
    built from the local entries ``local`` (:func:`_local_entries`, or a
    subset of them), into the output rows: full row s of T goes to
    ``rows[s]``, and its entry in full column t to ``rows[s][place[t]]``.

    One depth-first walk over the row's edges s_{N-1}, ..., s_1.  The level
    of the suffix s_i ... s_{N-1} holds, per auxiliary start a, the sparse
    row vector {(column index so far, auxiliary state): numerator} pushed
    through sites N-1 ... i, each site replacing s_i by every column edge
    t_i that R allows; every row with that suffix reuses it.  Site 0 closes
    the trace: only the entries of R that return to the start a are added,
    straight into the output rows.
    """
    qdim, adim = len(local), len(local[0])
    strides = [qdim ** (N - 1 - i) for i in range(N)]
    # close[x][c][a]: (column offset, numerator) of row (x, c)'s entries ending in state a.
    close = [
        [[[(y * strides[0], v) for y, b, v in e if b == a] for a in range(adim)] for e in x_rows] for x_rows in local
    ]
    # Entry (i, row, states, x) takes edge x at site i below the level
    # `states`, its next sibling waiting beneath it: only the current path is
    # alive.  A recursive closure would be a cycle keeping `rows` until gc.
    stack = [(N - 1, 0, [{(0, a): 1} for a in range(adim)], 0)]
    while stack:
        i, row, states, x = stack.pop()
        if x + 1 < qdim:
            stack.append((i, row, states, x + 1))
        row += x * strides[i]
        if i == 0:
            out, ends = rows[row], close[x]
            for a, state in enumerate(states):
                for (t, c), v in state.items():
                    for offset, w in ends[c][a]:
                        out[place[t + offset]] += v * w
            continue
        children = [{} for _ in states]
        entries, stride = local[x], strides[i]
        for state, pushed in zip(states, children):
            for (t, c), v in state.items():
                for y, b, w in entries[c]:
                    key = (t + y * stride, b)
                    pushed[key] = pushed.get(key, 0) + v * w
        stack.append((i - 1, row, children, 0))


def transfer_matrix_vertex(spec: LatticeSpec, params: ModelParams) -> ExactMatrix:
    """Row-to-row transfer matrix on the (n+1)^N-dimensional row space.

    T = tr_aux(R_{N-1,a} ... R_{1a} R_{0a}) on the integer numerators of R,
    from every nonzero entry of R by the one depth-first walk
    (:func:`_transfer_walk`) into full rows.  The one denominator is
    den(R)^N, reduced once.
    """
    n, m, N = spec.n, spec.m, spec.N
    r = fuse_nm(n, m, spec.u, params)
    size = (n + 1) ** N
    rows = [[0] * size for _ in range(size)]
    _transfer_walk(N, _local_entries(r, n + 1, m + 1), rows, list(range(size)))
    return ExactMatrix.from_integers(rows, r.denominator**N)


def partition_vertex_transfer(spec: LatticeSpec, params: ModelParams) -> Fraction:
    """Partition sum trace(T^M), taken as the sum over the charge sectors q
    of trace(T_qq^M).

    The charge of a basis index (x, c) of R is x + c, and of a row of T the
    sum of its edge states.  R must be graded: the row charge of each
    nonzero entry is at least its column charge, otherwise ``ValueError``
    names the entry.  Then T has no entry from charge q to a higher charge,
    so it is block-triangular and trace(T^M) = sum_q trace(T_qq^M), and
    T_qq takes only the charge-conserving entries of R: around the row the
    auxiliary charge closes, so the vertex charge changes, none negative,
    sum to zero.  The walk of :func:`transfer_matrix_vertex`
    (:func:`_transfer_walk`) runs on those entries alone, each row written
    into its sector's block at its position in the sector; the full T is
    never formed.  For M = 1 and for 1 x 1 blocks the sum is taken on the
    integer numerators.

    So the sum cannot see the charge-changing entries: for the seven-vertex
    R it does not depend on alpha, and a wrong alpha^2 u (u + 1) entry leaves
    it unchanged.
    """
    n, m, N, M = spec.n, spec.m, spec.N, spec.M
    r = fuse_nm(n, m, spec.u, params)
    local = _local_entries(r, n + 1, m + 1)
    for x, x_rows in enumerate(local):
        for c, entries in enumerate(x_rows):
            for y, b, _ in entries:
                if y + b > x + c:
                    raise ValueError(
                        f"operator is not charge-graded: its entry at row ({x}, {c}), column ({y}, {b})"
                        f" has column charge {y + b} > row charge {x + c}"
                    )
    conserving = [
        [[e for e in entries if e[0] + e[1] == x + c] for c, entries in enumerate(x_rows)]
        for x, x_rows in enumerate(local)
    ]
    charges = [sum(s) for s in product(range(n + 1), repeat=N)]
    sizes = [0] * (n * N + 1)
    place = []
    for q in charges:
        place.append(sizes[q])
        sizes[q] += 1
    blocks = [[[0] * size for _ in range(size)] for size in sizes]
    _transfer_walk(N, conserving, [blocks[q][k] for q, k in zip(charges, place)], place)
    den = r.denominator**N
    whole, z = 0, Fraction(0)
    for block in blocks:
        if M == 1:
            whole += sum(row[k] for k, row in enumerate(block))
        elif len(block) == 1:
            whole += block[0][0] ** M
        else:
            z += _trace_power(ExactMatrix.from_integers(block, den), M)
    return z + Fraction(whole, den**M)


def _height_rows(spec: LatticeSpec, window: tuple[int, int]) -> list[tuple[int, ...]]:
    """Periodic rows (h(0, j), ..., h(N-1, j)) of heights in the window whose
    N neighbouring pairs, h(N-1, j) and h(0, j) included, are n-adjacent."""
    lo, hi = window
    n, N = spec.n, spec.N
    return [
        row
        for row in product(range(lo, hi + 1), repeat=N)
        if all(up_steps(row[i], row[(i + 1) % N], n) is not None for i in range(N))
    ]


def _height_transfer(
    spec: LatticeSpec, rows: list[tuple[int, ...]], params: ModelParams
) -> ExactMatrix:
    """T[s, s'] = product over i of the face weight with top corners s_i,
    s_{i+1} and bottom corners s'_i, s'_{i+1}; zero at the first
    non-m-adjacent corner pair or vanishing face; the rows are n-adjacent, so
    every face weighed is admissible.  The spectral point is put over one
    denominator once, for every face weight of the matrix."""
    n, m, N = spec.n, spec.m, spec.N
    d, du, dw = _over_common_denominator(spec.u, params.w)

    def entry(s, t):
        if any(up_steps(s[i], t[i], m) is None for i in range(N)):
            return 0
        weight = Fraction(1)
        for i in range(N):
            k = (i + 1) % N
            weight *= _w_nm_sum_at(n, m, s[i], s[k], t[i], t[k], d, du, dw)
            if weight == 0:
                break
        return weight

    return ExactMatrix([[entry(s, t) for t in rows] for s in rows])


def transfer_matrix_sos(
    spec: LatticeSpec, window: tuple[int, int], params: ModelParams
) -> ExactMatrix:
    """Row-to-row height transfer matrix on the admissible periodic height
    rows inside the window [lo, hi], in lexicographic order of the rows.

    Raises ``DegenerateParameterPoint`` at integer w, outside the domain of
    the face weights, and ``ValueError`` when the window holds no admissible
    row (an empty window, or an odd n on a row of odd length N).
    """
    check_weight_domain(params)
    rows = _height_rows(spec, window)
    if not rows:
        raise ValueError(f"no admissible periodic height row of length {spec.N} in {window}")
    return _height_transfer(spec, rows, params)


def partition_sos_transfer(
    spec: LatticeSpec, window: tuple[int, int], params: ModelParams
) -> Fraction:
    """Windowed height-model partition sum as trace(T^M) of the height
    transfer matrix; zero when the window holds no admissible row.  Integer
    w is refused first, as by :func:`transfer_matrix_sos`."""
    check_weight_domain(params)
    rows = _height_rows(spec, window)
    if not rows:
        return Fraction(0)
    return _trace_power(_height_transfer(spec, rows, params), spec.M)


def _depth_first_sum(domains, factors):
    """Sum over all assignments x in product(*domains) of the product of factors.

    Each factor is (positions, weight): ``weight(x)`` reads x only at those
    positions.  It is applied once the last of them is assigned, in the
    order given, and the subtree below the first zero factor is skipped.
    """
    last = len(domains) - 1
    at_depth = [[] for _ in domains]
    for positions, weight in factors:
        at_depth[max(positions)].append(weight)
    x = [None] * len(domains)

    def visit(depth):
        total = 0
        applied = at_depth[depth]
        for state in domains[depth]:
            x[depth] = state
            local = 1
            for weight in applied:
                local *= weight(x)
                if not local:
                    break
            else:
                total += local if depth == last else local * visit(depth + 1)
        return total

    return visit(0)


def partition_vertex_bruteforce(spec: LatticeSpec, params: ModelParams) -> Fraction:
    """Exhaustive sum over all periodic edge configurations.

    The edge states below row 0 and left of column 0 (the periodic wrap)
    are assigned first, then the two edges above and right of each vertex
    in raster order, so every vertex factor is applied as soon as its own
    upper and right edges are set.  Weights are taken on the integer
    numerators of R over its one denominator.
    """
    n, m, N, M = spec.n, spec.m, spec.N, spec.M
    r = fuse_nm(n, m, spec.u, params)
    num, den = r.numerators, r.denominator
    hdim = m + 1
    order = [("v", i, M - 1) for i in range(N)] + [("h", N - 1, j) for j in range(M)]
    for j in range(M):
        for i in range(N):
            order += [e for e in (("v", i, j), ("h", i, j)) if e not in order]
    pos = {e: k for k, e in enumerate(order)}
    domains = [range(n + 1 if kind == "v" else hdim) for kind, _, _ in order]

    def vertex(up, right, down, left):
        def weight(x):
            return num[x[up] * hdim + x[right]][x[down] * hdim + x[left]]

        return (up, right, down, left), weight

    factors = [
        vertex(pos["v", i, j], pos["h", i, j], pos["v", i, (j - 1) % M], pos["h", (i - 1) % N, j])
        for j in range(M)
        for i in range(N)
    ]
    return Fraction(_depth_first_sum(domains, factors), den ** (N * M))


def partition_sos(
    spec: LatticeSpec, state_range: tuple[int, int], params: ModelParams
) -> Fraction:
    """Height-model partition sum over a window of height values.

    Heights live on the N x M torus of vertices (face corners wrap modulo N
    and M).  The height lattice is unbounded, so the sum is over the window
    [lo, hi] and the result is reported as window-dependent.  Heights are
    assigned in raster order h(0, 0), h(0, 1), ...; each neighbouring pair
    is checked for adjacency once both are set, before any face weight at
    that depth, and each face weight is taken once its last corner is set,
    at the one spectral point put over one denominator before the sum.
    Integer w, outside the domain of the face weights, is refused before
    any height is assigned.
    """
    check_weight_domain(params)
    lo, hi = state_range
    n, m, N, M = spec.n, spec.m, spec.N, spec.M
    d, du, dw = _over_common_denominator(spec.u, params.w)

    def site(i, j):
        return (i % N) * M + (j % M)

    def adjacent(p, q, order):
        return (p, q), lambda x: 1 if up_steps(x[p], x[q], order) is not None else 0

    def face(i, j):
        a, b, bp, c = site(i, j), site(i + 1, j), site(i, j + 1), site(i + 1, j + 1)

        def weight(x):
            return _w_nm_sum_at(n, m, x[a], x[b], x[bp], x[c], d, du, dw)

        return (a, b, bp, c), weight

    factors = []
    for i in range(N):
        for j in range(M):
            factors += [adjacent(site(i, j), site(i + 1, j), n), adjacent(site(i, j), site(i, j + 1), m)]
    factors += [face(i, j) for i in range(N) for j in range(M)]
    return Fraction(_depth_first_sum([range(lo, hi + 1)] * (N * M), factors))
