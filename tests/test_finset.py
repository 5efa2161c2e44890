import pytest
from hypothesis import given
from hypothesis import strategies as st

from finbundles.finset import (
    BaseMismatch,
    CodMismatch,
    DomMismatch,
    FinFn,
    FinSet,
    IsoCertificate,
    NotACone,
    NotBijective,
    TERMINAL,
    all_functions,
    coequalizer,
    product,
    pullback,
)
from finbundles.adjunction import check_frobenius, check_triangles, pullback_presentation
from finbundles.categories import slice_family

small_sets = st.integers(min_value=0, max_value=4).map(FinSet)
nonempty_sets = st.integers(min_value=1, max_value=4).map(FinSet)


@st.composite
def finfns(draw, dom=small_sets, cod=nonempty_sets):
    d = draw(dom)
    c = draw(cod)
    table = tuple(draw(st.integers(0, c.size - 1)) for _ in range(d.size))
    return FinFn(d, c, table)


def test_finset_labels_validated():
    FinSet(2, ("a", "b"))
    with pytest.raises(ValueError):
        FinSet(2, ("a",))
    with pytest.raises(ValueError):
        FinSet(2, ("a", "a"))
    with pytest.raises(ValueError):
        FinSet(-1)


def test_finfn_table_validated():
    with pytest.raises(ValueError):
        FinFn(FinSet(2), FinSet(2), (0, 2))
    with pytest.raises(ValueError):
        FinFn(FinSet(2), FinSet(2), (0,))


def test_product_sizes_and_projections():
    p = product(FinSet(2), FinSet(3))
    assert p.carrier.size == 6
    p = product(FinSet(4), FinSet(4))
    assert p.carrier.size == 16
    assert p.p1.table[5] == 1 and p.p2.table[5] == 1
    # oracle: every pair hit exactly once, projections recover components
    seen = set()
    for i in range(4):
        for j in range(4):
            k = p.index(i, j)
            assert p.p1.table[k] == i and p.p2.table[k] == j
            seen.add(k)
    assert seen == set(range(16))


def test_product_with_terminal_is_identity_up_to_iso():
    a = FinSet(3)
    p = product(a, TERMINAL)
    cert = IsoCertificate(p.p1, FinFn(a, p.carrier, tuple(p.index(i, 0) for i in a)))
    assert cert.forward.is_bijection()


def test_products_associate_and_commute_up_to_iso():
    a, b, c = FinSet(2), FinSet(3), FinSet(2)
    ab = product(a, b)
    ab_c = product(ab.carrier, c)
    bc = product(b, c)
    a_bc = product(a, bc.carrier)
    fwd = []
    for i in a:
        for j in b:
            for k in c:
                fwd.append((ab_c.index(ab.index(i, j), k),
                            a_bc.index(i, bc.index(j, k))))
    table = [0] * len(fwd)
    for src, dst in fwd:
        table[src] = dst
    IsoCertificate(FinFn(ab_c.carrier, a_bc.carrier, tuple(table)),
                   FinFn(a_bc.carrier, ab_c.carrier,
                         tuple(src for src, _ in sorted(fwd, key=lambda kv: kv[1]))))
    ba = product(b, a)
    swap = FinFn(ab.carrier, ba.carrier,
                 tuple(ba.index(j, i) for i in a for j in b))
    IsoCertificate(swap, swap.inverse())


@given(finfns(), finfns())
def test_pullback_matches_counting_oracle(f, g):
    if f.cod != g.cod:
        with pytest.raises(CodMismatch):
            pullback(f, g)
        return
    pb = pullback(f, g)
    expected = sum(1 for a in range(f.dom.size) for b in range(g.dom.size)
                   if f.table[a] == g.table[b])
    assert pb.carrier.size == expected
    for k, (a, b) in enumerate(pb.pairs):
        assert pb.p1.table[k] == a and pb.p2.table[k] == b
        assert f.table[a] == g.table[b]


def test_pullback_spec_examples():
    ident = FinFn.identity(FinSet(2))
    assert pullback(ident, ident).carrier.size == 2
    f = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
    assert pullback(f, f).carrier.size == 5
    empty = FinFn(FinSet(0), FinSet(2), ())
    assert pullback(empty, f).carrier.size == 0


def test_pullback_universal_property_exhaustive():
    f = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
    g = FinFn(FinSet(2), FinSet(2), (0, 1))
    pb = pullback(f, g)
    for z_size in range(3):
        z = FinSet(z_size)
        for u in all_functions(z, f.dom):
            for v in all_functions(z, g.dom):
                if u.then(f) != v.then(g):
                    continue
                med = pb.mediate(u, v)
                assert med.then(pb.p1) == u and med.then(pb.p2) == v
                others = [h for h in all_functions(z, pb.carrier)
                          if h.then(pb.p1) == u and h.then(pb.p2) == v]
                assert others == [med]


def test_pullback_mediator_unique_up_to_apex_six():
    # deterministic cones with apexes up to size 6; uniqueness by
    # exhaustive search over all candidate maps into the pullback
    f = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
    g = FinFn(FinSet(2), FinSet(2), (0, 1))
    pb = pullback(f, g)
    for z_size in range(1, 7):
        z = FinSet(z_size)
        u = FinFn(z, f.dom, tuple(k % 3 for k in range(z_size)))
        v = FinFn(z, g.dom, tuple(f.table[k % 3] for k in range(z_size)))
        assert u.then(f) == v.then(g)
        med = pb.mediate(u, v)
        others = [h for h in all_functions(z, pb.carrier)
                  if h.then(pb.p1) == u and h.then(pb.p2) == v]
        assert others == [med]


def test_coequalizer_equal_legs_is_identity_up_to_iso():
    f = FinFn(FinSet(3), FinSet(4), (1, 2, 3))
    c = coequalizer(f, f)
    assert c.quotient.size == 4
    IsoCertificate(c.q, c.q.inverse())


def test_coequalizer_glues_two_points():
    f = FinFn(FinSet(1), FinSet(2), (0,))
    g = FinFn(FinSet(1), FinSet(2), (1,))
    c = coequalizer(f, g)
    assert c.quotient.size == 1


def test_coequalizer_dom_mismatch():
    f = FinFn(FinSet(1), FinSet(2), (0,))
    g = FinFn(FinSet(2), FinSet(2), (0, 1))
    with pytest.raises(DomMismatch):
        coequalizer(f, g)


def _naive_quotient_classes(n, relation):
    """Independent oracle: close a relation by iterating to a fixed point."""
    cls = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in relation:
            lo, hi = min(cls[a], cls[b]), max(cls[a], cls[b])
            if lo != hi:
                for i in range(n):
                    if cls[i] == hi:
                        cls[i] = lo
                changed = True
    return len(set(cls))


def test_coequalizer_free_involution_matches_oracle():
    # the fixed-point-free involution on 4 points glues them in pairs
    dom = FinSet(4)
    cod = FinSet(4)
    f = FinFn(dom, cod, (0, 1, 2, 3))
    g = FinFn(dom, cod, (1, 0, 3, 2))
    c = coequalizer(f, g)
    oracle = _naive_quotient_classes(4, [(f.table[i], g.table[i]) for i in range(4)])
    assert c.quotient.size == oracle == 2


@given(finfns(), st.data())
def test_coequalizer_factorisation_unique(f, data):
    g_table = tuple(data.draw(st.integers(0, f.cod.size - 1))
                    for _ in range(f.dom.size))
    g = FinFn(f.dom, f.cod, g_table)
    c = coequalizer(f, g)
    oracle = _naive_quotient_classes(
        f.cod.size, [(f.table[i], g.table[i]) for i in range(f.dom.size)])
    assert c.quotient.size == oracle
    h = c.q
    u = c.factor(h)
    assert c.q.then(u) == h
    candidates = [v for v in all_functions(c.quotient, h.cod) if c.q.then(v) == h]
    assert candidates == [u]


def test_is_bijection_surjection():
    ident = FinFn.identity(FinSet(3))
    assert ident.is_bijection() and ident.is_surjection()
    const = FinFn.constant(FinSet(2), FinSet(2), 0)
    assert not const.is_bijection() and not const.is_surjection()
    skew = FinFn(FinSet(2), FinSet(3), (0, 1))
    assert not skew.is_bijection()


def test_inverse_names_the_first_failure():
    with pytest.raises(NotBijective) as exc:
        FinFn(FinSet(3), FinSet(3), (2, 0, 2)).inverse()
    assert exc.value.witness == (0, 2)
    with pytest.raises(NotBijective) as exc:
        FinFn(FinSet(2), FinSet(3), (0, 2)).inverse()
    assert exc.value.witness == ("missed", 1)
    swap = FinFn(FinSet(2), FinSet(2), (1, 0))
    assert swap.inverse() == swap


def test_mismatched_legs_raise_typed_errors():
    two, three = FinSet(2), FinSet(3)
    with pytest.raises(CodMismatch):
        FinFn(two, three, (0, 1)).then(FinFn.identity(two))
    prod = product(two, two)
    with pytest.raises(DomMismatch):
        prod.mediate(FinFn.identity(two), FinFn(three, two, (0, 1, 1)))
    with pytest.raises(CodMismatch):
        prod.mediate(FinFn.identity(two), FinFn(two, three, (0, 1)))
    pb = pullback(FinFn.identity(two), FinFn.identity(two))
    with pytest.raises(DomMismatch):
        pb.mediate(FinFn.identity(two), FinFn(three, two, (0, 1, 1)))
    with pytest.raises(CodMismatch):
        pb.mediate(FinFn.identity(two), FinFn(two, three, (0, 1)))
    c = coequalizer(FinFn.identity(two), FinFn.identity(two))
    with pytest.raises(DomMismatch):
        c.factor(FinFn.identity(three))


def test_mediate_names_the_first_point_off_the_cone():
    # u and v agree over the cospan at 0 (both reach 1) but not at 1,
    # where f(u 1) = 0 and g(v 1) = 1
    two = FinSet(2)
    pb = pullback(FinFn.identity(two), FinFn(TERMINAL, two, (1,)))
    with pytest.raises(NotACone) as exc:
        pb.mediate(FinFn(two, two, (1, 0)), FinFn.constant(two, TERMINAL, 0))
    assert exc.value.witness == (1, 0, 1)


def test_finset_checks_run_without_asserts():
    # every structural check of finset is a typed check, so it still runs
    # under python -O, where assert statements are stripped
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = "\n".join([
        "from finbundles.finset import FinFn, FinSet, FinSetError, pullback",
        "two, three = FinSet(2), FinSet(3)",
        "pb = pullback(FinFn.identity(two), FinFn.identity(two))",
        "cases = [lambda: FinFn(two, three, (0, 1)).then(FinFn.identity(two)),",
        "         lambda: FinFn.constant(two, two, 0).inverse(),",
        "         lambda: pb.mediate(FinFn.identity(two), FinFn(three, two, (0, 1, 1)))]",
        "for case in cases:",
        "    try:",
        "        out = case()",
        "    except FinSetError as exc:",
        "        print('REJECTED', type(exc).__name__, exc.witness)",
        "    else:",
        "        print('ACCEPTED', out)",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "REJECTED CodMismatch (FinSet(size=3, labels=None), FinSet(size=2, labels=None))",
        "REJECTED NotBijective (0, 1)",
        "REJECTED DomMismatch (FinSet(size=2, labels=None), FinSet(size=3, labels=None))",
    ]


# Base change along f is stated once, as adjunction.pullback_presentation.

def test_pullback_adjunction_identity_is_identity_up_to_iso():
    pres = pullback_presentation(FinFn.identity(FinSet(3)))
    s = FinFn(FinSet(2), FinSet(3), (0, 2))
    assert pres.left_obj(s) == s
    assert pres.right_obj(s).dom.size == s.dom.size
    IsoCertificate(pres.unit_at(s).fn, pres.counit_at(s).fn)


def test_pullback_adjunction_point_gives_fiber():
    pres = pullback_presentation(FinFn(TERMINAL, FinSet(2), (1,)))
    s = FinFn(FinSet(3), FinSet(2), (0, 1, 1))
    assert pres.right_obj(s).dom.size == 2


def test_pullback_adjunction_base_mismatch():
    pres = pullback_presentation(FinFn(FinSet(2), FinSet(3), (0, 1)))
    wrong = FinFn(FinSet(1), FinSet(4), (0,))
    with pytest.raises(BaseMismatch):
        pres.left_obj(wrong)
    with pytest.raises(BaseMismatch):
        pres.right_obj(wrong)
    with pytest.raises(BaseMismatch):
        pres.unit_at(wrong)


def test_pullback_adjunction_triangle_identities():
    for (nd, nc), table in (((2, 2), (0, 1)), ((3, 2), (0, 0, 1)), ((2, 3), (2, 0))):
        f = FinFn(FinSet(nd), FinSet(nc), table)
        pres = pullback_presentation(f)
        rep = check_triangles(pres, slice_family(f.dom, 4), slice_family(f.cod, 4))
        assert rep["passed"], rep


def test_pullback_adjunction_frobenius_bijection():
    # reciprocity for base change, checked exhaustively at small size
    for table, nd, nc in (((0, 1), 2, 2), ((0, 0, 1), 3, 2), ((1, 0), 2, 3)):
        f = FinFn(FinSet(nd), FinSet(nc), table)
        pres = pullback_presentation(f)
        rep = check_frobenius(pres, slice_family(f.cod, 3), slice_family(f.dom, 3))
        assert rep["passed"], rep


@given(finfns())
def test_compose_identity_laws(f):
    assert FinFn.identity(f.dom).then(f) == f
    assert f.then(FinFn.identity(f.cod)) == f


def test_iso_certificate_rejects_non_inverse():
    f = FinFn(FinSet(2), FinSet(2), (0, 0))
    with pytest.raises(ValueError):
        IsoCertificate(f, f)


def test_json_value_forms_roundtrip():
    from finbundles.finset import (
        finfn_from_json,
        finfn_to_json,
        finset_from_json,
        finset_to_json,
    )

    s = FinSet(3, ("a", "b", "c"))
    assert finset_from_json(finset_to_json(s)) == s
    assert finset_from_json(2) == FinSet(2)
    f = FinFn(FinSet(3), FinSet(2), (0, 1, 1))
    assert finfn_from_json(finfn_to_json(f)) == f
