import hashlib
import itertools
import time
from fractions import Fraction
from functools import partial
from math import factorial
from operator import mul

import pytest

from surfcover.characters import (
    MAX_TABLE_ENTRIES,
    BudgetExceededError,
    CharacterTable,
    _additions,
    centralizer_size,
    class_size,
    commutator_count,
    dim_irrep,
    factorization_count,
    get_table,
    hom_count,
    partitions,
    witten_zeta,
)
from surfcover.homspace import get_sampler
from surfcover.perms import commutator, compose, cycle_type

S3_TABLE = {
    (3,): (1, 1, 1),
    (2, 1): (-1, 0, 2),
    (1, 1, 1): (1, -1, 1),
}

S4_TABLE = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (-1, 0, -1, 1, 3),
    (2, 2): (0, -1, 2, 0, 2),
    (2, 1, 1): (1, 0, -1, -1, 3),
    (1, 1, 1, 1): (-1, 1, 1, -1, 1),
}


def test_partitions_order_and_counts():
    assert partitions(0) == [()]
    assert partitions(1) == [(1,)]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    known = {5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}
    for n, p_n in known.items():
        assert len(partitions(n)) == p_n

    def count(n, max_part):
        # independent recursive partition count
        if n == 0:
            return 1
        return sum(count(n - k, k) for k in range(1, min(n, max_part) + 1))

    for n in range(12):
        assert len(partitions(n)) == count(n, n)


def test_dimensions():
    assert dim_irrep((4,)) == 1
    assert dim_irrep((1, 1, 1, 1)) == 1
    assert dim_irrep((2, 1)) == 2
    assert dim_irrep((3, 2)) == 5
    for n in range(1, 13):
        assert sum(dim_irrep(lam) ** 2 for lam in partitions(n)) == factorial(n)


def test_small_tables_match_reference():
    for n, table in ((3, S3_TABLE), (4, S4_TABLE)):
        t = get_table(n)
        for lam, row in table.items():
            assert t.row(lam) == row, lam


def test_character_at_identity_is_dimension():
    for n in range(1, 9):
        ident = tuple([1] * n)
        for lam in partitions(n):
            assert get_table(n).chi(lam, ident) == dim_irrep(lam)


def test_trivial_and_sign_rows():
    for n in range(1, 8):
        for mu in partitions(n):
            assert get_table(n).chi((n,), mu) == 1
            parity = (-1) ** (n - len(mu))
            assert get_table(n).chi(tuple([1] * n), mu) == parity


# --- independent oracle: Young's seminormal representation -----------------


def standard_tableaux(shape):
    n = sum(shape)
    rows = [[] for _ in shape]

    def fill(value):
        if value == n:
            yield tuple(tuple(r) for r in rows)
            return
        for i, row in enumerate(rows):
            if len(row) < shape[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                row.append(value)
                yield from fill(value + 1)
                row.pop()

    yield from fill(0)


def seminormal_matrix(shape, k, tableaux, index):
    """Matrix of the swap of values k and k+1 on the seminormal basis."""
    size = len(tableaux)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for col, t in enumerate(tableaux):
        pos = {}
        for i, row in enumerate(t):
            for j, v in enumerate(row):
                pos[v] = (i, j)
        (ri, ci), (rj, cj) = pos[k], pos[k + 1]
        r = (cj - rj) - (ci - ri)
        if r == 1 and ri == rj:
            matrix[col][col] = Fraction(1)
            continue
        if r == -1 and ci == cj:
            matrix[col][col] = Fraction(-1)
            continue
        swapped = [list(row) for row in t]
        swapped[ri][ci], swapped[rj][cj] = k + 1, k
        target = index[tuple(tuple(row) for row in swapped)]
        matrix[col][col] = Fraction(1, r)
        matrix[target][col] = Fraction(1) if ri < rj else 1 - Fraction(1, r * r)
    return matrix


def mat_mul(a, b):
    size = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def adjacent_swap_sequence(perm):
    """Bubble-sort decomposition; the product has perm's cycle type."""
    arr = list(perm)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append(i)
                changed = True
    return swaps


def class_representative(mu):
    n = sum(mu)
    out = [0] * n
    pos = 0
    for part in mu:
        block = list(range(pos, pos + part))
        for a, b in zip(block, block[1:] + block[:1]):
            out[a] = b
        pos += part
    return tuple(out)


def seminormal_character(lam, mu):
    tableaux = list(standard_tableaux(lam))
    index = {t: i for i, t in enumerate(tableaux)}
    size = len(tableaux)
    rep = class_representative(mu)
    swaps = adjacent_swap_sequence(rep)
    result = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for k in swaps:
        result = mat_mul(result, seminormal_matrix(lam, k, tableaux, index))
    trace = sum(result[i][i] for i in range(size))
    assert trace.denominator == 1
    return trace.numerator


def test_mn_matches_seminormal_traces():
    for n in range(1, 6):
        for lam in partitions(n):
            assert len(list(standard_tableaux(lam))) == dim_irrep(lam)
            for mu in partitions(n):
                rep = class_representative(mu)
                assert cycle_type(rep) == mu
                assert get_table(n).chi(lam, mu) == seminormal_character(lam, mu), (lam, mu)


# ---------------------------------------------------------------------------


def test_row_orthogonality():
    for n in range(1, 8):
        t = get_table(n)
        nf = factorial(n)
        for i, lam in enumerate(t.partitions):
            for j, lam2 in enumerate(t.partitions):
                inner = sum(
                    size * t.chi(lam, mu) * t.chi(lam2, mu)
                    for mu, size in zip(t.partitions, t.class_sizes)
                )
                assert inner == (nf if i == j else 0)


def test_witten_zeta():
    assert witten_zeta(2, 2) == 2
    assert witten_zeta(3, 2) == Fraction(9, 4)
    assert witten_zeta(1, 5) == 1
    with pytest.raises(ValueError):
        witten_zeta(0, 2)


def test_hom_count():
    assert hom_count(1, 2) == 1
    assert hom_count(2, 2) == 16
    assert hom_count(3, 2) == 486
    assert hom_count(2, 3) == 64
    for n in range(1, 21):
        for genus in (2, 3):
            assert hom_count(n, genus) > 0  # integrality is checked internally
    with pytest.raises(ValueError):
        hom_count(3, 1)


def test_commutator_count_s3():
    assert commutator_count(3, (1, 1, 1)) == 18
    assert commutator_count(3, (2, 1)) == 0
    assert commutator_count(3, (3,)) == 9
    with pytest.raises(ValueError):
        commutator_count(3, (2, 2))


def test_commutator_count_brute_force():
    for n in range(2, 6):
        counts = {mu: 0 for mu in partitions(n)}
        perms = list(itertools.permutations(range(n)))
        for a in perms:
            for b in perms:
                counts[cycle_type(commutator(a, b))] += 1
        for mu in partitions(n):
            assert counts[mu] == commutator_count(n, mu) * class_size(mu)


def test_total_commutator_mass():
    for n in range(1, 8):
        total = sum(
            class_size(mu) * commutator_count(n, mu) for mu in partitions(n)
        )
        assert total == factorial(n) ** 2


def g_commutator_product_count(n, genus, mu):
    """Tuples (a_1, b_1, ..., a_g, b_g) whose commutator product is a fixed
    element of class mu, as the sampler's plan counts them."""
    plan = get_sampler(n, genus + 1)
    return plan.block_counts[genus][plan.table.index[mu]]


def test_g_commutator_product_count():
    for n in range(1, 7):
        ident = tuple([1] * n)
        assert g_commutator_product_count(n, 2, ident) == hom_count(n, 2)
    assert g_commutator_product_count(3, 1, (3,)) == commutator_count(3, (3,))
    assert g_commutator_product_count(2, 2, (2,)) == 0


def test_g_commutator_product_brute_force():
    n, genus = 3, 2
    perms = list(itertools.permutations(range(n)))
    target = {mu: 0 for mu in partitions(n)}
    fixed_rep = {mu: None for mu in partitions(n)}
    counts = {mu: 0 for mu in partitions(n)}
    reps = {}
    for p in perms:
        reps.setdefault(cycle_type(p), p)
    for a in perms:
        for b in perms:
            lead = commutator(a, b)
            for c in perms:
                for d in perms:
                    prod = compose(lead, commutator(c, d))
                    for mu, rep in reps.items():
                        if prod == rep:
                            counts[mu] += 1
    for mu in partitions(n):
        assert counts[mu] == g_commutator_product_count(n, genus, mu)


def test_class_and_centralizer_sizes():
    assert class_size((1, 1, 1, 1)) == 1
    assert centralizer_size((1, 1, 1, 1)) == 24
    assert class_size((2, 1, 1)) == 6
    assert class_size((2, 2)) == 3
    for n in range(1, 9):
        for mu in partitions(n):
            assert class_size(mu) * centralizer_size(mu) == factorial(n)
    # direct count over all of S_4
    found = {mu: 0 for mu in partitions(4)}
    for p in itertools.permutations(range(4)):
        found[cycle_type(p)] += 1
    for mu, count in found.items():
        assert count == class_size(mu)


def test_factorization_count():
    # fixing x = identity forces y to equal the target
    assert factorization_count((1, 1, 1), (2, 1), (2, 1)) == 1
    assert factorization_count((1, 1, 1), (2, 1), (3,)) == 0
    assert factorization_count((1, 1, 1), (1, 1, 1), (1, 1, 1)) == 1
    assert factorization_count((2, 1), (2, 1), (1, 1, 1)) == 3
    # brute force in S4: count x in k1 with x*y = rep for y in k2
    n = 4
    perms = list(itertools.permutations(range(n)))
    reps = {}
    for p in perms:
        reps.setdefault(cycle_type(p), p)
    for k1 in partitions(n):
        for k2 in partitions(n):
            for sigma in partitions(n):
                rep = reps[sigma]
                brute = 0
                for x in perms:
                    if cycle_type(x) != k1:
                        continue
                    y = compose(inverse_of(x), rep)
                    if cycle_type(y) == k2:
                        brute += 1
                assert brute == factorization_count(k1, k2, sigma), (k1, k2, sigma)


def inverse_of(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def test_table_freeze():
    t = CharacterTable(4)
    assert t.matrix is None
    t.freeze()
    assert t.matrix is not None
    assert t.chi((2, 2), (2, 2)) == 2


def test_table_edge_cases():
    assert get_table(0).chi((), ()) == 1
    assert get_table(0).matrix == ((1,),)
    assert get_table(1).matrix == ((1,),)
    t = CharacterTable(3)
    # chi() on an unfrozen table builds the whole table first
    assert t.chi((2, 1), (1, 2)) == t.chi((2, 1), (2, 1)) == 0
    assert t.matrix is not None
    assert t.chi((2, 1), (1, 1, 1)) == 2


def test_malformed_shapes_raise_value_error():
    t = get_table(4)
    for call in (
        lambda: t.chi((1, 3), (4,)),
        lambda: t.chi((2, 2), (3, 1, 0)),
        lambda: t.row((3, 2)),
        lambda: t.column((1, 3)),
    ):
        with pytest.raises(ValueError):
            call()
    assert t.chi((3, 1), (1, 3)) == t.chi((3, 1), (3, 1)) == 0


def skew_strip_sign(lam, nu):
    """(-1)^(rows - 1) if lam / nu is a border strip (connected, no 2x2
    block), else None; found on the Young diagrams cell by cell."""
    padded = tuple(nu) + (0,) * (len(lam) - len(nu))
    if len(nu) > len(lam) or any(a < b for a, b in zip(lam, padded)):
        return None
    cells = {(i, j) for i, row in enumerate(lam) for j in range(padded[i], row)}
    if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells for i, j in cells):
        return None
    start = next(iter(cells))
    seen, todo = {start}, [start]
    while todo:
        i, j = todo.pop()
        for near in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if near in cells and near not in seen:
                seen.add(near)
                todo.append(near)
    if seen != cells:
        return None
    return (-1) ** (len({i for i, _ in cells}) - 1)


def test_strip_additions_match_young_diagrams():
    for m in range(1, 11):
        larger = partitions(m)
        for k in range(1, m + 1):
            additions = _additions(m, k)
            assert len(additions) == len(partitions(m - k))
            for nu, strips in zip(partitions(m - k), additions):
                brute = set()
                for i, lam in enumerate(larger):
                    sign = skew_strip_sign(lam, nu)
                    if sign is not None:
                        brute.add((i, sign))
                assert len(strips) == len(brute)
                assert set(strips) == brute, (m, k, nu)


def test_freeze_checks_identity_column_against_dimensions():
    t = CharacterTable(4)
    t.dims = t.dims[:-1] + (2,)
    with pytest.raises(ArithmeticError):
        t.freeze()
    assert t.matrix is None


# sha256 of repr(tuple(tuple(t.chi(lam, mu) for lam in P) for mu in P)) for
# P = partitions(n), recorded with the earlier per-entry memoised recursion.
GOLDEN_TABLES = [
    (12, "6ad2002c9dd02d2b018230fdbf6c477d679949dcda5e643df6cab8c43aca6e01"),
    (16, "7d19f1020ecf9f0cb5697ca8fd0704254d2f8537f1f82cc0a44df08aa0937b0e"),
    (20, "fc83c16e0104f2fc527b0aefa31436f82c17ee5d6e5d67b3be0c1b66e80d5176"),
]


@pytest.mark.parametrize("n,digest", GOLDEN_TABLES)
def test_golden_tables(n, digest):
    t = get_table(n)
    parts = t.partitions
    values = tuple(tuple(t.chi(lam, mu) for lam in parts) for mu in parts)
    assert values == t.matrix
    assert hashlib.sha256(repr(values).encode()).hexdigest() == digest


# sha256 of repr(get_table(24).freeze().matrix), recorded with the border-strip
# removal tables that preceded the bead-mask strip additions; its beta-number
# masks pass 2^30.
GOLDEN_TABLE_24 = "4aee4e12ae10c59fa35df3177a16353fb2b8aad7da85c2c506dde5885498e944"


def test_golden_table_24():
    matrix = get_table(24).freeze().matrix
    assert hashlib.sha256(repr(matrix).encode()).hexdigest() == GOLDEN_TABLE_24


def test_column_orthogonality():
    t = get_table(16).freeze()
    for i, column in enumerate(t.matrix):
        for j, column2 in enumerate(t.matrix):
            inner = sum(map(mul, column, column2))
            assert inner == (t.centralizer_sizes[i] if i == j else 0)


def test_oversized_table_refused_up_front():
    assert len(partitions(28)) ** 2 <= MAX_TABLE_ENTRIES < len(partitions(29)) ** 2
    t = CharacterTable(29)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        t.freeze()
    with pytest.raises(BudgetExceededError):
        t.chi((29,), (29,))
    assert time.perf_counter() - start < 1.0
    assert t.matrix is None
    # counts that need no character values stay available
    assert hom_count(29, 2) > 0
    assert witten_zeta(29, 2) > 1
    # past n = 50 no table is made, before its partitions are listed
    start = time.perf_counter()
    for refused in (partial(hom_count, genus=2), partial(witten_zeta, s=2), CharacterTable):
        with pytest.raises(BudgetExceededError):
            refused(51)
    assert time.perf_counter() - start < 1.0
