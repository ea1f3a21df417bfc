"""Independent reference implementations used to derive and check test values.

Everything here is deliberately written the slow, obvious way, without
importing the package under test: direct double-loop transforms, Fraction
arithmetic, explicit enumerations.  Run as a script to print the golden
values that the test files freeze as literals.
"""

from __future__ import annotations

import ast
import functools
import itertools
import re
import warnings
from fractions import Fraction


# ---------------------------------------------------------------- cells, shift-and-round

def ref_interval_index(w: Fraction, length: Fraction) -> int:
    """Index m with w in [m*L, (m+1)*L), by pure Fraction comparison."""
    w, length = Fraction(w), Fraction(length)
    m = int(w / length)  # truncation, fix up below
    while m * length > w:
        m -= 1
    while (m + 1) * length <= w:
        m += 1
    return m


def ref_midpoint(w: Fraction, length: Fraction) -> Fraction:
    m = ref_interval_index(w, length)
    return (Fraction(2 * m + 1) / 2) * Fraction(length)


def ref_contained(lo: Fraction, hi: Fraction, length: Fraction) -> bool:
    return ref_interval_index(lo, length) == ref_interval_index(hi, length)


def ref_choose_shift(w, epsilon, d0: int) -> int | None:
    """Smallest D in 1..d0+1 with every [w_j+(2D-1)e, w_j+(2D+1)e] in one cell."""
    epsilon = Fraction(epsilon)
    length = 2 * (d0 + 1) * epsilon
    for delta in range(1, d0 + 2):
        if all(
            ref_contained(
                Fraction(wj) + (2 * delta - 1) * epsilon,
                Fraction(wj) + (2 * delta + 1) * epsilon,
                length,
            )
            for wj in w
        ):
            return delta
    return None


def ref_shift_round(w, epsilon, d0: int) -> tuple[list[Fraction], list[int]]:
    """Grouped shift-and-round, the Fraction way: per group of d0 coordinates
    the scanned shift D, then the midpoint of the cell holding w_j + 2*D*e."""
    epsilon = Fraction(epsilon)
    length = 2 * (d0 + 1) * epsilon
    y: list[Fraction] = []
    deltas: list[int] = []
    for start in range(0, len(w), d0):
        group = [Fraction(v) for v in w[start : start + d0]]
        delta = ref_choose_shift(group, epsilon, d0)
        deltas.append(delta)
        y.extend(ref_midpoint(wj + 2 * delta * epsilon, length) for wj in group)
    return y, deltas


# ---------------------------------------------------------------- Gabber-Galil walk

# The normalized second eigenvalue of the eight maps below is at most
# 5*sqrt(2)/8 ~= 0.8839 for every modulus m (Gabber-Galil); the tests check
# this rational upper bound numerically for small m.  (The coefficient of 2
# matters: the similar maps (x+y, y) / (x, y+x) pass 0.884 already at m = 16.)
GG_SECOND_EIGENVALUE_BOUND = Fraction(221, 250)


def ref_gg_neighbor(m: int, v: tuple[int, int], label: int) -> tuple[int, int]:
    """The four affine torus maps and their inverses, straight from the formulas."""
    x, y = v
    if label == 0:
        return ((x + 2 * y) % m, y)
    if label == 1:
        return ((x + 2 * y + 1) % m, y)
    if label == 2:
        return (x, (y + 2 * x) % m)
    if label == 3:
        return (x, (y + 2 * x + 1) % m)
    if label == 4:
        return ((x - 2 * y) % m, y)
    if label == 5:
        return ((x - 2 * y - 1) % m, y)
    if label == 6:
        return (x, (y - 2 * x) % m)
    if label == 7:
        return (x, (y - 2 * x - 1) % m)
    raise ValueError(label)


def permutation_array(step, m: int, label: int):
    """perm[x + m*y] = the id of the vertex step(m, (x, y), label) reaches on
    Z_m x Z_m, for a step such as ref_gg_neighbor or the sampler's walk."""
    import numpy as np

    images = (step(m, (x, y), label) for y in range(m) for x in range(m))
    return np.fromiter((nx + m * ny for nx, ny in images), dtype=np.int64, count=m * m)


def adjacency_matrix(step, m: int):
    """The dense normalized walk matrix of the eight labels of step on
    Z_m x Z_m (column-stochastic, and doubly stochastic if each permutes)."""
    import numpy as np

    a = np.zeros((m * m, m * m))
    ids = np.arange(m * m)
    for label in range(8):
        a[permutation_array(step, m, label), ids] += 1.0 / 8
    return a


def ref_bits_to_int(bits: str) -> int:
    """Little-endian, one character at a time: bits[i] contributes 2**i."""
    value = 0
    for i, b in enumerate(bits):
        if b == "1":
            value |= 1 << i
    return value


def ref_int_to_bits(value: int, width: int) -> str:
    return "".join("1" if value >> i & 1 else "0" for i in range(width))


def ref_vertex_from_bits(bits: str) -> tuple[int, int]:
    """The torus vertex a bit string embeds: its first and second halves,
    little-endian, an odd length padded with a zero on top."""
    if len(bits) % 2:
        bits += "0"
    half = len(bits) // 2
    return ref_bits_to_int(bits[:half]), ref_bits_to_int(bits[half:])


def bits_from_vertex(v: tuple[int, int], s: int) -> str:
    """The s-bit string a torus vertex embeds: both coordinates on ceil(s/2)
    bits, low coordinate first, cut to s bits (inverse of ref_vertex_from_bits)."""
    half = (s + 1) // 2
    return (ref_int_to_bits(v[0], half) + ref_int_to_bits(v[1], half))[:s]


def ref_torus_walk(bits: int, count: int, source) -> list[tuple[int, int]]:
    """The first count vertices of a walk on the torus of bits-bit strings,
    drawn step by step: the start vertex costs `bits` drawn bits, and each
    step one 3-bit label."""
    m = 1 << ((bits + 1) // 2)
    v = ref_vertex_from_bits(source.draw(bits, phase="sampler"))
    vertices = [v]
    for _ in range(count - 1):
        v = ref_gg_neighbor(m, v, ref_bits_to_int(source.draw(3, phase="sampler")))
        vertices.append(v)
    return vertices


def ref_batch_seeds(plan, source) -> list[tuple[int, int]]:
    """A median sampler's r batch seeds (a, b), one draw per batch in
    independent mode and one per walk step in walk mode."""
    nf = plan.field_bits
    if plan.mode == "independent":
        return [ref_vertex_from_bits(source.draw(2 * nf, phase="sampler"))
                for _ in range(plan.r)]
    return ref_torus_walk(2 * nf, plan.r, source)


def ref_tv(p: dict, q: dict) -> Fraction:
    keys = set(p) | set(q)
    return sum((abs(Fraction(p.get(k, 0)) - Fraction(q.get(k, 0))) for k in keys),
               Fraction(0)) / 2


# ---------------------------------------------------------------- GF(2^m)

def ref_gf2_mul(a: int, b: int, poly: int, m: int) -> int:
    """Peasant multiplication in GF(2^m) with reducing polynomial `poly`."""
    out = 0
    for i in range(m):
        if b >> i & 1:
            out ^= a << i
    # reduce
    for i in range(2 * m - 2, m - 1, -1):
        if out >> i & 1:
            out ^= poly << (i - m)
    return out


def ref_is_irreducible(poly: int, m: int) -> bool:
    """Brute force: no divisor of degree 1..m//2."""
    for deg in range(1, m // 2 + 1):
        for low in range(1 << deg):
            divisor = (1 << deg) | low
            if ref_poly_mod(poly, divisor) == 0:
                return False
    return True


def ref_poly_mod(a: int, b: int) -> int:
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def ref_affine_points(a: int, b: int, t0: int, poly: int, m: int, n: int) -> list[int]:
    return [(ref_gf2_mul(a, g, poly, m) ^ b) & ((1 << n) - 1) for g in range(t0)]


@functools.cache
def ref_field_poly(m: int) -> int:
    """The smallest irreducible polynomial of degree m, by brute force."""
    return next(f for f in range(1 << m, 1 << (m + 1)) if ref_is_irreducible(f, m))


# ---------------------------------------------------------------- extractor, generator

def ref_extract(params, x: str, y: str) -> str:
    """The extractor on strings: x XOR S(u, v), u the first m bits of y and v
    the next m, both little-endian, and bit i of S the parity of u^i & v,
    each power u^(i+1) = u^i * u a peasant product; a params object without
    m is the fresh extractor Ext(x, y) = y."""
    m = getattr(params, "m", None)
    if m is None:
        return y
    assert len(x) == params.s and len(y) == 2 * m
    u, v = ref_bits_to_int(y[:m]), ref_bits_to_int(y[m:])
    out, power = [], 1
    for bit in x:
        out.append("1" if (bin(power & v).count("1") + (bit == "1")) % 2 else "0")
        power = ref_gf2_mul(power, u, ref_field_poly(m), m)
    return "".join(out)


@functools.cache
def ref_field_bits(s: int, t: int, beta: Fraction) -> int:
    """The smallest m >= 1 with ((s - 1)/2^m)^2 * 2^t <= beta^2, in Fractions:
    bias (s - 1)/2^m small enough for deficit t and error beta."""
    return next(m for m in itertools.count(1) if Fraction(s - 1, 1 << m) ** 2 * 2**t <= beta**2)


def ref_plan(n: int, k: int, sigma: int, gamma: Fraction, backend: str = "auto"):
    """The generator plan for k blocks of n bits, as (s, levels): the seed
    lengths s_0 = n, ..., s_levels and one (extractor, seed bits, beta) per
    level.  levels = ceil(log2 k); level i has error share beta_i =
    gamma / (levels * 2^(levels-1-i)) and deficit t_i, the smallest t with
    2^t >= sigma^(2^i), and costs either s_i fresh bits or the 2m bits of the
    small-bias extractor.  "auto" takes the fresh bits when s_i <= 2m, and
    turns a plan of more than n*k bits into ([n*k], []), the identity on n*k
    uniform bits; "small-bias" and "fresh" take one kind at every level."""
    levels = next(L for L in itertools.count() if 1 << L >= k)
    s, plan = [n], []
    for i in range(levels):
        beta = Fraction(gamma) / (levels * 2 ** (levels - 1 - i))
        t = next(t for t in itertools.count() if 2**t >= sigma ** (2**i))
        small_bias = 2 * ref_field_bits(s[-1], t, beta) if backend != "fresh" else None
        if backend == "small-bias" or (backend == "auto" and small_bias < s[-1]):
            plan.append(("small-bias", small_bias, beta))
        else:
            plan.append(("fresh", s[-1], beta))
        s.append(s[-1] + plan[-1][1])
    if backend == "auto" and s[-1] > n * k:
        return [n * k], []
    return s, plan


def ref_schedule(n: int, k: int, sigma: int, gamma: Fraction, backend: str = "auto") -> list[int]:
    """The seed lengths of ref_plan."""
    return ref_plan(n, k, sigma, gamma, backend)[0]


def ref_expand(schedule, seed: str) -> str:
    """The generator on strings, G_i(x, y) = G_{i-1}(x) || G_{i-1}(Ext(x, y)),
    read from a schedule's lengths (n, levels, s, extractors) and truncated
    to n*k bits."""
    assert len(seed) == schedule.s[schedule.levels]

    def level(i: int, bits: str) -> str:
        if i == 0:
            return bits
        x, y = bits[: schedule.s[i - 1]], bits[schedule.s[i - 1] :]
        return level(i - 1, x) + level(i - 1, ref_extract(schedule.extractors[i - 1], x, y))

    return level(schedule.levels, seed)[: schedule.n * schedule.k]


def batch_points(a: int, b: int, t0: int, field_bits: int, n: int):
    """The t0 sampler points a*g + b (g = 0..t0-1) truncated to n bits, as uint64.

    The vectorized form of ref_affine_points over the package's field: one
    pass per bit of g, xoring in a * x^i wherever that bit is set.  The
    pointwise reference that batch sums over affine cosets are checked
    against.
    """
    import numpy as np

    if t0 > 1 << field_bits:
        raise ValueError("field too small for t0 distinct points")
    poly = ref_field_poly(field_bits)
    g = np.arange(t0, dtype=np.uint64)
    acc = np.full(t0, b, dtype=np.uint64)
    for i in range(field_bits):
        a_xi = np.uint64(ref_gf2_mul(a, 1 << i, poly, field_bits))
        acc ^= np.where((g >> np.uint64(i)) & np.uint64(1), a_xi, np.uint64(0))
    return acc & np.uint64((1 << n) - 1)


def ref_batch_cosets(a: int, b: int, t0: int, field_bits: int, n: int):
    """The batch a*g + b (g < t0), truncated to n bits, as (multiplicity, c,
    basis) triples, one per set bit j of t0: the column-by-column split that
    sampler.batch_cosets replaced, kept as its reference.  batch_cosets
    folds the full-rank triples into one multiplicity and returns the
    others, in this order, as they are here.

    A reduced row echelon basis of span{(a * x^i) mod 2^n : i < j} is kept
    after every column, reducing each new vector against it with min and
    re-sorting; c is b xored with a * x^i for every set bit i > j of t0.
    """
    if t0 > 1 << field_bits:
        raise ValueError("field too small for t0 distinct points")
    poly = ref_field_poly(field_bits)
    powers = [ref_gf2_mul(a, 1 << i, poly, field_bits) for i in range(field_bits)]
    mask = (1 << n) - 1
    basis: list[int] = []
    cosets = []
    for j in range(field_bits + 1):
        if t0 >> j & 1:
            c = b
            for i in range(j + 1, field_bits):
                if t0 >> i & 1:
                    c ^= powers[i]
            cosets.append((1 << (j - len(basis)), c & mask, tuple(basis)))
        if j < field_bits and len(basis) < n:  # a full-rank V stays the same
            v = powers[j] & mask
            for w in basis:
                v = min(v, v ^ w)
            if v:
                top = 1 << (v.bit_length() - 1)
                basis = sorted([w ^ v if w & top else w for w in basis] + [v])
    return cosets


def ref_coset_sum(oracle, c: int, basis) -> int | Fraction:
    """The exact sum of an oracle over the affine coset c + span(basis), point
    by point: one eval_ints call on every point, each value added as a Python
    int (a numpy bool as 0/1) or, if not an int, as its exact Fraction.  The
    single-coset summing method that the stacked coset_sums replaced."""
    import numpy as np

    points = [c]
    for v in basis:
        points += [p ^ v for p in points]
    values = oracle.eval_ints(np.array(points, dtype=np.uint64)).tolist()
    total = 0
    for v in values:
        v = v.item() if isinstance(v, np.generic) else v
        total += v if isinstance(v, int) else Fraction(v)
    return total


def ref_batch_sums(plan, oracle, seeds) -> list:
    """The exact sum of each batch (a, b) in seeds, coset by coset: mult *
    ref_coset_sum for every coset of ref_batch_cosets, the whole cube
    included, so every point is evaluated through the oracle's eval_ints."""
    return [
        sum(mult * ref_coset_sum(oracle, c, basis)
            for mult, c, basis in ref_batch_cosets(a, b, plan.t0, plan.field_bits, plan.n))
        for a, b in seeds
    ]


# ---------------------------------------------------------------- Fourier

def brute_wht(table) -> list[int]:
    """out[mask] = sum_y f(y) * (-1)^popcount(mask & y), O(4^n)."""
    size = len(table)
    out = []
    for mask in range(size):
        acc = 0
        for y in range(size):
            sign = -1 if bin(mask & y).count("1") % 2 else 1
            acc += sign * int(table[y])
        out.append(acc)
    return out


def ref_cube_weights(table, cand_ints, ell: int) -> list[int]:
    """The sum of h_p(y, y', z) = F(yz)F(y'z)(-1)^<p, y xor y'> over all
    (y, y', z) for each candidate p, in closed form: the sums over y and y'
    factor, so it is sum_z R(z, p)^2 with R(z, p) = sum_y F(yz)(-1)^<p, y>,
    y the low ell bits of F's index and z the rest."""
    rows = [
        [sum(int(table[y | z << ell]) * (-1) ** bin(p & y).count("1") for y in range(1 << ell))
         for p in range(1 << ell)]
        for z in range(len(table) >> ell)
    ]
    return [sum(row[p] ** 2 for row in rows) for p in cand_ints]


def brute_subcube_weight(table, prefix: str) -> Fraction:
    size = len(table)
    n = size.bit_length() - 1
    sums = brute_wht(table)
    ell = len(prefix)
    p = sum(1 << i for i, bit in enumerate(prefix) if bit == "1")
    total = 0
    for mask in range(size):
        if (mask & ((1 << ell) - 1)) == p:
            total += sums[mask] ** 2
    return Fraction(total, 1 << (2 * n))


def ref_weights_pointwise(table, cand_ints, ell: int, n: int, batches, t0: int):
    """Median-of-batches W_p estimates, summing every point of every batch.

    `batches` holds each batch's t0 points (y, y', z) packed little-endian
    into n + ell bits.  Per candidate p and batch the estimate sums
    F(yz)F(y'z)(-1)^<p, y xor y'>; the result is Fraction(lower median of
    the batch sums, t0).  This is the point-by-point summation that the
    package used before it summed batches over affine cosets.
    """
    import numpy as np

    signs = np.asarray(table, dtype=np.int64)
    mask_l = np.uint64((1 << ell) - 1)
    sh_l = np.uint64(ell)
    sh_2l = np.uint64(2 * ell)
    sums = np.zeros((len(cand_ints), len(batches)), dtype=np.int64)
    for bi, v in enumerate(batches):
        v = np.asarray(v, dtype=np.uint64)
        y = v & mask_l
        yp = (v >> sh_l) & mask_l
        z = v >> sh_2l
        prod = signs[(y | (z << sh_l)).astype(np.int64)]
        prod = prod * signs[(yp | (z << sh_l)).astype(np.int64)]
        diff = y ^ yp
        for ci, p in enumerate(cand_ints):
            par = (np.bitwise_count(diff & np.uint64(p)) & 1).astype(np.int64)
            sums[ci, bi] = (prod * (1 - 2 * par)).sum()
    return [
        Fraction(int(lower_median_ref(sums[ci].tolist())), t0)
        for ci in range(len(cand_ints))
    ]


# ---------------------------------------------------------------- circuits

def full_paren_python(expr) -> str:
    """Render an AST as a fully parenthesized Python expression on 0/1 ints.

    Independent evaluation path: NOT becomes (1 - .), the binary operators
    map to Python's &, ^, |; full parenthesization sidesteps precedence.
    """
    kind = type(expr).__name__
    if kind == "Var":
        return f"x[{expr.index}]"
    if kind == "Const":
        return str(expr.value)
    if kind == "Not":
        return f"(1 - {full_paren_python(expr.child)})"
    left = full_paren_python(expr.left)
    right = full_paren_python(expr.right)
    return f"({left} {expr.op} {right})"


def ref_print_circuit(expr) -> str:
    """Render an AST in the circuit language with every binary operation
    parenthesized, so parsing it back needs no precedence."""
    kind = type(expr).__name__
    if kind == "Var":
        return f"x{expr.index}"
    if kind == "Const":
        return str(expr.value)
    if kind == "Not":
        return f"~{ref_print_circuit(expr.child)}"
    return f"({ref_print_circuit(expr.left)} {expr.op} {ref_print_circuit(expr.right)})"


_REF_OPS = {ast.BitAnd: "&", ast.BitXor: "^", ast.BitOr: "|"}


def ref_parse_circuit(text: str, n: int):
    """The tree of a circuit expression as nested tuples, ("Var", i),
    ("Const", v), ("Not", child) and ("BinOp", op, left, right), or None
    where the language rejects text.

    Python's own grammar parses it: its precedence ~ > & > ^ > | and its
    left-associative binary operators are the language's.  The text goes
    in with its whitespace runs cut to single spaces, so that no newline or
    indent reaches Python.  Every node must be one the language has: a
    BitAnd, BitXor or BitOr BinOp, an Invert UnaryOp, a Name written
    x[0-9]+ with index below n, or a constant written 0 or 1.  So a tuple,
    a call, a hex or float literal and an NFKC-folded name are rejected,
    and so is a text with a character no node accounts for, such as a
    comment."""
    source = " ".join(text.split())
    read = 0  # characters of the leaves and operators

    def convert(node):
        nonlocal read
        if isinstance(node, ast.BinOp) and type(node.op) in _REF_OPS:
            read += 1
            return ("BinOp", _REF_OPS[type(node.op)], convert(node.left), convert(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            read += 1
            return ("Not", convert(node.operand))
        written = ast.get_source_segment(source, node)
        if isinstance(node, ast.Name) and re.fullmatch("x[0-9]+", written):
            if int(written[1:]) < n:
                read += len(written)
                return ("Var", int(written[1:]))
        if isinstance(node, ast.Constant) and written in ("0", "1"):
            read += 1
            return ("Const", int(written))
        raise SyntaxError(f"{written!r} is not in the circuit language")

    try:
        with warnings.catch_warnings():  # "1not" parses with a SyntaxWarning
            warnings.simplefilter("ignore", SyntaxWarning)
            tree = convert(ast.parse(source, mode="eval").body)
    except (SyntaxError, ValueError):  # a NUL is a ValueError before Python 3.12
        return None
    return tree if read == sum(c not in " ()" for c in source) else None


def ref_eval_circuit(expr, bits: str) -> int:
    x = [1 if b == "1" else 0 for b in bits]
    return eval(full_paren_python(expr), {"x": x})  # noqa: S307 - test oracle


# ---------------------------------------------------------------- trees

def ref_tree_distribution(evaluate, k: int, n: int) -> dict:
    """Path distribution under a uniform (n*k)-bit input, exact counts / 2^(nk)."""
    counts: dict = {}
    for word in itertools.product("01", repeat=n * k):
        bits = "".join(word)
        path = evaluate(bits)
        counts[path] = counts.get(path, 0) + 1
    return counts


# ---------------------------------------------------------------- steward budgets

def ref_round_budget(k: int, d: int, accuracy, delta) -> tuple[Fraction, Fraction, Fraction]:
    """(epsilon, per-round delta, gamma) of a k-round steward with d0 = d whose
    answers must lie within accuracy: accuracy/(3d+5), delta/(2k), delta/2."""
    accuracy, delta = Fraction(accuracy), Fraction(delta)
    return accuracy / (3 * d + 5), delta / (2 * k), delta / 2


def ref_gl_recipe(n: int, d: int, theta, delta) -> dict:
    """The recipe Goldreich-Levin was first written with: eps_est = theta^2 /
    (4(3d+5)), each level's sampler at (eps_est/2, delta/(2dn)), the steward
    at eps_est and delta/(2n) per level, gamma = delta/2.  It splits the
    failure over n, which is the number of levels k only when u = 1."""
    theta, delta = Fraction(theta), Fraction(delta)
    eps_est = theta**2 / (4 * (3 * d + 5))
    return {
        "epsilon": eps_est, "delta": delta / (2 * n), "gamma": delta / 2,
        "sampler_epsilon": eps_est / 2, "sampler_delta": delta / (2 * d * n),
    }


# ---------------------------------------------------------------- misc

def lower_median_ref(values):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def ref_ceil_log2(q) -> int:
    """The smallest L >= 0 with 2^L >= q, by doubling from 1."""
    q = Fraction(q)
    L = 0
    while 2**L < q:
        L += 1
    return L


def ref_median_miss(r: int, p: Fraction) -> Fraction:
    """The chance that the lower median of r independent values is off, each
    value off with probability p and free to fall on either side: the law of
    the miss count built by Pascal's rule, summed over the counts j at which
    r - j good values (0) and j misses all on one side (-1 or 1) give a
    median that misses."""
    law = [Fraction(1)]  # law[j] = P[j misses so far]
    for _ in range(r):
        law = [(law[j] * (1 - p) if j < len(law) else 0) + (law[j - 1] * p if j else 0)
               for j in range(len(law) + 1)]
    return sum(
        (law[j] for j in range(r + 1)
         if any(lower_median_ref([0] * (r - j) + [side] * j) == side for side in (-1, 1))),
        Fraction(0),
    )


def three_sigma_bound(rate_bound: float, trials: int) -> float:
    """rate_bound + 3 * standard error of a Bernoulli at that rate."""
    se = (rate_bound * (1 - rate_bound) / trials) ** 0.5
    return rate_bound + 3 * se


if __name__ == "__main__":
    # golden values frozen into the test files
    L1 = Fraction(1)
    print("interval_index(0, 1)       =", ref_interval_index(0, L1))
    print("interval_index(3/2, 1)     =", ref_interval_index(Fraction(3, 2), L1))
    print("interval_index(-3/10, 1)   =", ref_interval_index(Fraction(-3, 10), L1))
    print("midpoint(3/2, 1)           =", ref_midpoint(Fraction(3, 2), L1))
    print("midpoint(1/5, 1)           =", ref_midpoint(Fraction(1, 5), L1))
    print("midpoint(-3/10, 1)         =", ref_midpoint(Fraction(-3, 10), L1))
    print("contained(3/4, 5/4, 1)     =", ref_contained(Fraction(3, 4), Fraction(5, 4), L1))
    print("contained(5/4, 7/4, 1)     =", ref_contained(Fraction(5, 4), Fraction(7, 4), L1))
    print("contained(1/2, 1, 1)       =", ref_contained(Fraction(1, 2), Fraction(1), L1))
    e = Fraction(1, 4)
    print("choose_shift([1/2], 1/4)   =", ref_choose_shift([Fraction(1, 2)], e, 1))
    print("choose_shift([0], 1/4)     =", ref_choose_shift([Fraction(0)], e, 1))
    print("choose_shift([1/2,5/6],1/6)=",
          ref_choose_shift([Fraction(1, 2), Fraction(5, 6)], Fraction(1, 6), 2))
    print("gg m=4 (1,2) label 0       =", ref_gg_neighbor(4, (1, 2), 0))
    print("gg m=2 (0,0) label 1       =", ref_gg_neighbor(2, (0, 0), 1))
    print("gg m=4 walk (0,0) [2,2]    =", ref_gg_neighbor(4, ref_gg_neighbor(4, (0, 0), 2), 2))

    maj3 = [1 if bin(x).count("1") < 2 else -1 for x in range(8)]
    print("maj3 walsh sums            =", brute_wht(maj3))
    chi1 = [1, -1, 1, -1]
    print("chi{1} n=2 walsh sums      =", brute_wht(chi1))
    print("W_'10'(chi1)               =", brute_subcube_weight(chi1, "10"))
    print("W_'01'(chi1)               =", brute_subcube_weight(chi1, "01"))

    # generator seeds from (n, k, sigma, 1/gamma) of each config, with the
    # test or README line that freezes them
    seeds = {
        "criterion 6; session-small": (8, 8, 4, 16),
        "session-wide": (8, 4, 34, 16),
        "accept-circuits": (234, 16, 3, 20),
        "gl-search; gl n=2 (test_fourier, test_cli, README gl)": (187, 2, 11, 4),
        "test_prg k=4096": (8, 4096, 4, 16),
        "test_prg k=512": (8, 512, 4, 16),
        "test_steward MAIN_CFG": (4, 2, 3, 4),
        "test_adversary PIN_CFG": (8, 3, 4, 16),
        "test_circuits acceptance session": (117, 2, 3, 8),
        "accept CLI (README accept)": (93, 2, 3, 4),
        "demo adversary main (README)": (8, 2, 3, 16),
        "APP runner": (44, 2, 3, 4),
        # gl_params(n, theta, 1/10), criterion 11's table
        "criterion 11 n=8 theta=1/2": (348, 8, 34, 20),
        "criterion 11 n=8 theta=1/4": (440, 4, 258, 20),
        "criterion 11 n=12 theta=1/2 (README audit)": (363, 12, 34, 20),
        "criterion 11 n=12 theta=1/4": (455, 6, 258, 20),
        "criterion 11 n=16 theta=1/2": (382, 16, 34, 20),
        "criterion 11 n=16 theta=1/4": (464, 8, 258, 20),
    }
    for name, (n, k, sigma, q) in seeds.items():
        s, plan = ref_plan(n, k, sigma, Fraction(1, q))
        kinds = "+".join(str(bits) if kind == "fresh" else f"2*{bits // 2}" for kind, bits, _ in plan)
        print(f"seed_len{(n, k, sigma, q)} = {s[-1]:5d}  {name}:",
              f"n + {kinds}" if plan else "n*k, capped")
