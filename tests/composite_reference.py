"""The composite-row checks that linalg.composite_witness replaced, kept as
the reference: compose_rows multiplies two row sets into the rows of the
composite, summing like columns through the Scalar path (Unit + Unit and
Scalar + Scalar), and row_counterexample compares two composites row by
row.  mixed_complex_report and part (b) of twist.verify_transport are
restated here on top of them, on the store's row sets read back as
(col, value) pairs by unit_rows_reference.pairs, so the kernel's verdicts
and counterexample texts can be compared with these.
"""

from quasicyc.cyclic import full_tuples, operators
from unit_rows_reference import pairs


def _row_sum(pairs) -> list:
    """The (col, coeff) pairs with like columns added and zeros dropped,
    columns in order of first appearance."""
    acc = {}
    for col, c in pairs:
        prev = acc.get(col)
        acc[col] = c if prev is None else prev + c
    return [(col, c) for col, c in acc.items() if c]


def compose_rows(outer, inner) -> list[list]:
    """Rows of the composite "outer after inner", (col, coeff) pairs as
    atom_rows builds them: outer's columns index inner's rows.  Sums that
    cancel are dropped, so a zero composite has only empty rows, and the
    result goes to compose_rows, apply_rows or linalg.rank again."""
    return [
        _row_sum(
            (col, d if c == 1 else -d if c == -1 else c * d)
            for j, c in row
            for col, d in inner[j]
        )
        for row in outer
    ]


def row_counterexample(group, in_degree, out_degree, rows, other=None):
    """None when the operators C^in_degree -> C^out_degree with these rows
    are equal (other=None: the zero operator), else "degree k output ...
    input ..." naming the support tuples of the first coefficient of
    rows - other that did not cancel."""
    for i, row in enumerate(rows):
        if other is not None:
            row = list(row) + [(col, -c) for col, c in other[i]]
        diff = _row_sum(row)
        if diff:
            return (
                f"degree {in_degree} output {full_tuples(group, out_degree)[i]!r} "
                f"input {full_tuples(group, in_degree)[min(col for col, _ in diff)]!r}"
            )
    return None


def mixed_counterexamples(group, chi, degree_max) -> dict:
    """{law: counterexample or None} of the mixed-complex laws, as
    cyclic.mixed_complex_report decided them by composing rows."""
    def rows(op, k):
        return pairs(operators(group, chi).rows(op, k))

    out = dict.fromkeys(("b_squared", "B_squared", "bB_plus_Bb", "N_lambda"))

    def check(law, k, out_degree, lhs, rhs=None):
        if out[law] is None:
            out[law] = row_counterexample(group, k, out_degree, lhs, rhs)

    for k in range(degree_max + 1):
        check("b_squared", k, k + 2, compose_rows(rows("b", k + 1), rows("b", k)))
        check("N_lambda", k, k, compose_rows(rows("N", k), rows("lambda", k)), rows("N", k))
        if k >= 1:
            bB = compose_rows(rows("b", k - 1), rows("B", k))
            Bb = compose_rows(rows("B", k + 1), rows("b", k))
            check("bB_plus_Bb", k, k, bB, [[(c, -v) for c, v in r] for r in Bb])
        if k >= 2:
            check("B_squared", k, k - 2, compose_rows(rows("B", k - 1), rows("B", k)))
    return out


def intertwining_counterexample(F, chi, group, degree_max):
    """Part (b) of verify_transport, b^F T = T b on the twisted store's
    rows, T the diagonal rows of the prefactor: None or the first
    counterexample."""
    store = operators(group, chi, F)
    pref = store.prefactor
    T = [[[(i, p)] for i, p in enumerate(pref.values(k))] for k in range(degree_max + 2)]
    for k in range(degree_max + 1):
        lhs = compose_rows(pairs(store.rows("b", k)), T[k])
        rhs = compose_rows(T[k + 1], pairs(operators(group, chi).rows("b", k)))
        bad = row_counterexample(group, k, k + 1, lhs, rhs)
        if bad is not None:
            return bad
    return None
