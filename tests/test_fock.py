import pytest
from hypothesis import given, settings, strategies as st

from sweil.scalars import QI, ONE
from sweil.fock import (
    Box,
    FockMonomial,
    FockVector,
    GenKey,
    VACUUM,
    apply_generator,
    apply_product,
    enumerate_box,
    format_monomial,
    make_monomial,
    normal_order_slots,
    parse_monomial,
    product_on_monomial,
)


def g(c, k):
    return GenKey("g", c, k)


def b(c, k):
    return GenKey("b", c, k)


def t(c, k):
    return GenKey("t", c, k)


def e(c, k):
    return GenKey("e", c, k)


def mono(*keys):
    sign, m = make_monomial(keys)
    assert sign == 1
    return m


def test_creator_classification():
    assert g(0, 1).is_creator() and not g(0, 0).is_creator()
    assert b(0, 0).is_creator() and not b(0, 1).is_creator()
    assert e(0, 2).is_creator() and not e(0, -1).is_creator()
    assert t(0, -3).is_creator() and not t(0, 1).is_creator()


def test_pairing_relations():
    # e t + t e = 1 on vac: t(u_0) then e(u'_0)
    v = apply_generator(t(0, 0), FockVector.vacuum())
    back = apply_generator(e(0, 0), v)
    assert back == FockVector.vacuum()
    # g b - b g = 1: annihilator g(u'_0) contracts b(u_0) with +1
    v = apply_generator(b(0, 0), FockVector.vacuum())
    assert apply_generator(g(0, 0), v) == FockVector.vacuum()
    # and on b^k the coefficient is +k
    v3 = apply_product([b(0, 0)] * 3, VACUUM)
    assert apply_generator(g(0, 0), v3) == apply_product([b(0, 0)] * 2, VACUUM).scale(3)
    # b annihilator on g^k gives -k
    w2 = apply_product([g(0, 1)] * 2, VACUUM)
    assert apply_generator(b(0, 1), w2) == apply_product([g(0, 1)], VACUUM).scale(-2)


def test_nonmatching_pairs_vanish():
    v = apply_generator(e(0, 1), FockVector.vacuum())
    assert apply_generator(t(0, 2), v).is_zero()
    assert apply_generator(g(0, -1), FockVector.vacuum()).is_zero()


def test_fermionic_square_zero():
    v = apply_generator(e(0, 1), FockVector.vacuum())
    assert apply_generator(e(0, 1), v).is_zero()
    v = apply_generator(t(0, 0), FockVector.vacuum())
    assert apply_generator(t(0, 0), v).is_zero()


def test_fermionic_insertion_sign():
    # canonical order: e-family before t-family, mode ascending
    m = mono(e(0, 1), t(0, 0))
    v = apply_generator(e(0, 2), FockVector.of(m))
    ((m2, c),) = v.terms.items()
    assert m2 == mono(e(0, 1), e(0, 2), t(0, 0))
    assert c == -ONE  # one fermion (e at mode 1) precedes the slot


def test_fermionic_contraction_sign():
    m = mono(e(0, 1), e(0, 2))
    # t(u_2) contracts the second fermion: sign (-1)^1
    v = apply_generator(t(0, 2), FockVector.of(m))
    ((m2, c),) = v.terms.items()
    assert m2 == mono(e(0, 1)) and c == -ONE
    # t(u_1) contracts the first: sign +1
    v = apply_generator(t(0, 1), FockVector.of(m))
    ((m2, c),) = v.terms.items()
    assert m2 == mono(e(0, 2)) and c == ONE


def test_relative_mode_kills_zero_mode_fermions():
    assert apply_generator(t(0, 0), FockVector.vacuum(), relative=True).is_zero()
    assert apply_generator(e(0, 0), FockVector.vacuum(), relative=True).is_zero()
    # nonzero modes unaffected
    assert not apply_generator(t(0, -1), FockVector.vacuum(), relative=True).is_zero()


def test_energy_and_degrees():
    assert VACUUM.degrees() == (0, 0, 0, 0, 0)
    m = mono(e(0, 2), t(0, -1))
    assert m.degrees() == (3, 0, 0, 1, 1)
    m = mono(g(0, 2), b(0, 0))
    assert m.degrees() == (2, 0, 0, 0, 0)
    m = mono(g(0, 1), e(0, 1), t(0, -2))
    assert m.degrees() == (4, 1, 0, 1, 1)


def test_energy_additive_and_nonnegative():
    m1 = mono(g(0, 2))
    m2 = mono(t(0, -1), b(0, -3))
    joined = mono(g(0, 2), t(0, -1), b(0, -3))
    assert joined.energy() == m1.energy() + m2.energy()
    for m in enumerate_box(1, Box(emax=2, b0max=1)):
        assert m.energy() >= 0


def normal_order_pair(a: GenKey, b: GenKey):
    """Normal order the written product ``a b`` of a same-statistics pair.

    Returns (sign, [first, second]): an annihilator written before a
    creator moves right, a fermionic swap contributes -1, and the
    contraction term is dropped.
    """
    if (not a.is_creator()) and b.is_creator():
        return (-1 if a.is_fermionic() else 1), [b, a]
    return 1, [a, b]


def test_normal_order_pair():
    """The two-key rule, and normal_order_slots on every same-statistics
    pair agreeing with it."""
    # :t(u_1) e(u'_1): -> -e(u'_1) t(u_1)
    assert normal_order_pair(t(0, 1), e(0, 1)) == (-1, [e(0, 1), t(0, 1)])
    # :b(u_0) g(u'_0): unchanged (both annihilator-side order already normal)
    assert normal_order_pair(b(0, 0), g(0, 0)) == (1, [b(0, 0), g(0, 0)])
    # distinct modes: creator moved left with coefficient 1
    assert normal_order_pair(b(0, 1), g(0, 2)) == (1, [g(0, 2), b(0, 1)])
    keys = [g(0, 2), g(1, 0), b(0, 1), b(0, 0), e(0, 1), e(1, 0), t(0, 1), t(1, -1)]
    for x in keys:
        for y in keys:
            if x.is_fermionic() == y.is_fermionic():
                assert normal_order_slots([x, y]) == normal_order_pair(x, y), (x, y)


def test_normal_order_slots_sign():
    sign, keys = normal_order_slots([t(0, 1), e(0, 1)])
    assert sign == -1 and keys == [e(0, 1), t(0, 1)]
    sign, keys = normal_order_slots([b(0, 1), g(0, 2)])
    assert sign == 1 and keys == [g(0, 2), b(0, 1)]
    # already normal stays put
    sign, keys = normal_order_slots([g(0, 2), b(0, 1)])
    assert sign == 1 and keys == [g(0, 2), b(0, 1)]


def test_enumerate_box_smallest():
    out = enumerate_box(1, Box(emax=0, b0max=0))
    assert out == sorted([VACUUM, mono(t(0, 0))], key=lambda m: (m.bosons, m.fermions))
    assert len(out) == 2


def test_enumerate_box_e1_counts():
    absolute = enumerate_box(1, Box(emax=1, b0max=0))
    assert len(absolute) == 10
    relative = enumerate_box(1, Box(emax=1, b0max=0, zero_fermions_allowed=False))
    assert len(relative) == 5
    assert len(set(absolute)) == 10


def test_enumerate_box_b0():
    out = enumerate_box(1, Box(emax=0, b0max=2, zero_fermions_allowed=False))
    # vac, b0, b0^2
    assert len(out) == 3


def _admits(box, m):
    """Whether the monomial ``m`` lies in ``box``."""
    if m.energy() > box.emax:
        return False
    if sum(1 for k in m.bosons if k.family == "b" and k.mode == 0) > box.b0max:
        return False
    return box.zero_fermions_allowed or not m.has_zero_mode_fermion()


def _ref_enumerate_box(dim, box):
    """The enumerator that ``enumerate_box`` replaced: every multiplicity
    of every generator in GenKey order, each product canonicalized by
    ``make_monomial`` and kept if the box admits it."""
    gens = []
    for c in range(dim):
        for k in range(1, box.emax + 1):
            gens += [g(c, k), b(c, -k), e(c, k), t(c, -k)]
        gens.append(b(c, 0))
        if box.zero_fermions_allowed:
            gens.append(t(c, 0))
    gens.sort()
    out = []

    def rec(idx, chosen, energy, b0):
        if idx == len(gens):
            sign, m = make_monomial(chosen)
            assert sign in (1, -1)
            if _admits(box, m):
                out.append(m)
            return
        key = gens[idx]
        cost = key.mode if key.family in ("g", "e") else -key.mode
        zero_b = key.family == "b" and key.mode == 0
        max_rep = 1 if key.is_fermionic() else (
            box.b0max - b0 if zero_b else (box.emax - energy) // cost
        )
        n = 0
        while energy + n * cost <= box.emax and (not zero_b or b0 + n <= box.b0max):
            rec(idx + 1, chosen + [key] * n, energy + n * cost, b0 + (n if zero_b else 0))
            if n >= max_rep:
                break
            n += 1

    rec(0, [], 0, 0)
    return sorted(out, key=lambda m: (
        tuple((k.family != "g", k.mode, k.comp) for k in m.bosons),
        tuple((k.family != "e", k.mode, k.comp) for k in m.fermions),
    ))


@pytest.mark.parametrize("zero_fermions", [True, False])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_enumerate_box_matches_canonicalizing_reference(dim, zero_fermions):
    """The canonical-order enumerator gives the reference's monomials in
    the reference's order, and each is canonical: ``make_monomial`` maps
    its keys back to it with sign 1.  Every box with emax <= 3 and
    b0max <= 2 is compared, and every larger one with emax <= 4 and
    b0max <= 4 of at most 15,000 monomials: the reference takes about
    20 us a monomial."""
    for emax in range(5):
        for b0max in range(5):
            box = Box(emax=emax, b0max=b0max, zero_fermions_allowed=zero_fermions)
            got = enumerate_box(dim, box)
            assert all(type(m) is FockMonomial for m in got)
            # a box only grows with b0max
            if (emax > 3 or b0max > 2) and len(got) > 15000:
                break
            assert got == _ref_enumerate_box(dim, box), box
            for m in got:
                assert make_monomial(m.bosons + m.fermions) == (1, m)


def test_box_deg_constraints():
    """A box carries no degree filter; the (E, Deg_S) slices of
    slice_monomials, bucketed by Deg_Lambda, cut it into disjoint pieces
    whose union is the whole box."""
    from itertools import product

    from sweil.cohomology import slice_monomials
    from sweil.liealg import abelian, builtin_sl2_orthonormal, loop_backend

    cases = [
        (loop_backend(abelian(1, with_form=True)), 2),
        (loop_backend(builtin_sl2_orthonormal()), 1),
    ]
    for (backend, emax), relative in product(cases, (True, False)):
        box = Box(emax=emax, b0max=1, zero_fermions_allowed=not relative)
        whole = enumerate_box(backend.dim, box)
        pieces = []
        for energy in range(emax + 1):
            for deg_s in range(-energy - box.b0max, energy + 1):
                slices = slice_monomials(backend, energy, deg_s, relative)
                for deg_l, monos in slices.items():
                    for m in monos:
                        assert m.degrees()[:3] == (energy, deg_s, deg_l)
                        if _admits(box, m):
                            pieces.append(m)
        assert len(pieces) == len(set(pieces)) == len(whole)
        assert set(pieces) == set(whole)


def test_text_roundtrip():
    m = mono(g(0, 2), b(0, 0), e(0, 1), t(0, -3))
    txt = format_monomial(m)
    assert txt == "g(1,+2) b(1,0) | e(1,+1) t(1,-3)"
    assert parse_monomial(txt) == m
    assert parse_monomial("vac") == VACUUM
    assert format_monomial(VACUUM) == "vac"


@given(st.lists(st.sampled_from([g(0, 1), g(0, 2), b(0, 0), b(0, -1)]), max_size=5))
def test_boson_canonicalization_order_independent(keys):
    import itertools

    base = make_monomial(keys)
    for perm in itertools.islice(itertools.permutations(keys), 6):
        assert make_monomial(list(perm)) == base


def test_fermion_swap_sign():
    s1, m1 = make_monomial([e(0, 1), e(0, 2)])
    s2, m2 = make_monomial([e(0, 2), e(0, 1)])
    assert m1 == m2 and s1 == -s2
    s3, m3 = make_monomial([e(0, 1), e(0, 1)])
    assert s3 == 0 and m3 is None


def test_vector_space_laws():
    v = FockVector.of(mono(g(0, 1)), QI(2)) + FockVector.of(VACUUM, QI(1, 1))
    w = v - v
    assert w.is_zero()
    assert v.scale(0).is_zero()
    assert (v + v) == v.scale(2)


# -- one-pass kernel against a step-by-step vector reference -----------


def _ref_generator(key, m, relative):
    """One generator on one monomial as a list of (monomial, QI): the
    step-by-step semantics the one-pass kernel must reproduce."""
    fsort = lambda k: ({"e": 0, "t": 1}[k.family], k.mode, k.comp)
    bsort = lambda k: ({"g": 0, "b": 1}[k.family], k.mode, k.comp)
    if relative and key.is_fermionic() and key.mode == 0:
        return []
    if key.is_creator():
        if key.is_fermionic():
            if key in m.fermions:
                return []
            pos = sum(1 for f in m.fermions if fsort(f) < fsort(key))
            fermions = m.fermions[:pos] + (key,) + m.fermions[pos:]
            return [(FockMonomial(m.bosons, fermions), QI(-1 if pos % 2 else 1))]
        bosons = tuple(sorted(m.bosons + (key,), key=bsort))
        return [(FockMonomial(bosons, m.fermions), ONE)]
    partner = key.dual()
    if key.is_fermionic():
        for idx, f in enumerate(m.fermions):
            if f == partner:
                fermions = m.fermions[:idx] + m.fermions[idx + 1 :]
                return [(FockMonomial(m.bosons, fermions), QI(-1 if idx % 2 else 1))]
        return []
    count = m.bosons.count(partner)
    if count == 0:
        return []
    idx = m.bosons.index(partner)
    bosons = m.bosons[:idx] + m.bosons[idx + 1 :]
    return [(FockMonomial(bosons, m.fermions), QI(count if key.family == "g" else -count))]


def _ref_product(keys, m, relative):
    vec = FockVector.of(m)
    for key in reversed(keys):
        out = FockVector()
        for m1, c1 in vec.terms.items():
            for m2, c2 in _ref_generator(key, m1, relative):
                out.add_term(m2, c1 * c2)
        vec = out
    return vec


_KEYS = st.builds(
    GenKey,
    st.sampled_from(("b", "g", "t", "e")),
    st.integers(0, 1),
    st.integers(-2, 2),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_KEYS.filter(GenKey.is_creator), max_size=8), st.data(), st.booleans())
def test_product_on_monomial_matches_stepwise_reference(start, data, relative):
    fermions = {
        k for k in start if k.is_fermionic() and not (relative and k.mode == 0)
    }
    bosons = [k for k in start if not k.is_fermionic()]
    _, m = make_monomial(bosons + sorted(fermions))
    # half the keys are annihilators of m's own creators, so that most
    # products reach the contraction branches instead of vanishing
    partners = [k.dual() for k in m.bosons + m.fermions]
    key = st.one_of(_KEYS, st.sampled_from(partners)) if partners else _KEYS
    keys = data.draw(st.lists(key, max_size=5))
    factor, m2 = product_on_monomial(keys, m, relative)
    expected = _ref_product(keys, m, relative)
    if factor == 0:
        assert m2 is None and expected.is_zero()
    else:
        assert type(factor) is int
        assert expected == FockVector({m2: QI(factor)})
    assert apply_product(keys, m, relative) == expected
