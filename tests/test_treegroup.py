import random

import pytest

from arboreal.treegroup import (
    DEFAULT_SEED,
    MAX_VERIFY_DEPTH,
    CapExceeded,
    SubgroupGens,
    TreeAut,
    abelianization,
    act,
    act_node,
    closure,
    compose,
    enumerate_group,
    faithful_nodes,
    in_Mv,
    inverse,
    level,
    phi,
    restrict,
    tilde_phi,
    verify_noncommutation,
)
from arboreal.treegroup import _commute, _splitter

ROOT2 = TreeAut.from_strings(["1", "00"])
IDENT2 = TreeAut.identity(2)


def act_reference(g: TreeAut, leaf: str) -> str:
    """Independent portrait action: walk the original path, flipping each
    letter by the swap bit stored at its prefix node."""
    out = []
    for i in range(len(leaf)):
        prefix = leaf[:i]
        node = int(prefix, 2) if prefix else 0
        bit = int(leaf[i]) ^ g.label(i + 1, node)
        out.append(str(bit))
    return "".join(out)


def all_leaves(depth):
    return [format(j, f"0{depth}b") for j in range(1 << depth)]


def test_act_root_swap():
    assert act(TreeAut.from_strings(["1", "00"]), "00") == "10"


def test_act_identity():
    for leaf in all_leaves(3):
        assert act(TreeAut.identity(3), leaf) == leaf


def test_act_portrait_rule_example():
    # sigma_1 = [1], sigma_2 = [1, 0] on "01": bit 1 flips, bit 2 is flipped
    # by the label at the original prefix "0"
    g = TreeAut.from_strings(["1", "10"])
    assert act(g, "01") == "10"
    assert act(g, "00") == "11"
    assert act(g, "10") == "00"
    assert act(g, "11") == "01"


def test_act_matches_reference_exhaustively():
    for g in enumerate_group(3):
        for leaf in all_leaves(3):
            assert act(g, leaf) == act_reference(g, leaf)


def test_act_is_a_prefix_preserving_bijection():
    for g in list(enumerate_group(2)):
        images = {act(g, leaf) for leaf in all_leaves(2)}
        assert len(images) == 4


def test_compose_inverse_identity():
    for g in enumerate_group(2):
        assert compose(g, inverse(g)) == IDENT2
        assert compose(inverse(g), g) == IDENT2
    ident3 = TreeAut.identity(3)
    for g in enumerate_group(3):
        assert compose(g, inverse(g)) == ident3
    rng, ident8 = random.Random(8), TreeAut.identity(8)
    for _ in range(50):
        g = TreeAut(8, tuple(rng.getrandbits(1 << k) for k in range(8)))
        assert compose(g, inverse(g)) == ident8 == compose(inverse(g), g)


def test_inverse_undoes_action():
    for g in enumerate_group(3):
        inv = inverse(g)
        for leaf in all_leaves(3):
            assert act(inv, act(g, leaf)) == leaf


def test_root_swap_involution():
    assert compose(ROOT2, ROOT2) == IDENT2


def test_compose_matches_action_exhaustively_depth2():
    els = list(enumerate_group(2))
    for g in els:
        for h in els:
            gh = compose(g, h)
            for leaf in all_leaves(2):
                assert act(gh, leaf) == act(g, act(h, leaf))


def test_compose_matches_action_depth3():
    els = list(enumerate_group(3))
    rng = random.Random(0)
    for _ in range(4000):
        g, h = rng.choice(els), rng.choice(els)
        gh = compose(g, h)
        for leaf in all_leaves(3):
            assert act(gh, leaf) == act(g, act(h, leaf))


def test_associativity_sampled_depth3():
    els = list(enumerate_group(3))
    rng = random.Random(1)
    for _ in range(3000):
        g, h, k = (rng.choice(els) for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


def test_phi_examples():
    assert phi(1, ROOT2) == 1
    assert phi(2, ROOT2) == 0
    assert all(phi(k, TreeAut.identity(3)) == 0 for k in (1, 2, 3))
    with pytest.raises(ValueError):
        phi(4, TreeAut.identity(3))


def test_phi_homomorphism_exhaustive_depth3():
    els = list(enumerate_group(3))
    for g in els:
        ab_g = abelianization(g)
        for h in els:
            gh = compose(g, h)
            ab_h = abelianization(h)
            assert abelianization(gh) == tuple(a ^ b for a, b in zip(ab_g, ab_h))


def test_abelianization_values():
    assert abelianization(TreeAut.identity(3)) == (0, 0, 0)
    assert abelianization(TreeAut.from_strings(["1", "00", "0000"])) == (1, 0, 0)


def test_abelianization_kernel_size_depth3():
    kernel = [g for g in enumerate_group(3) if not any(abelianization(g))]
    assert len(kernel) == 16  # index 2^3 in a group of order 128


def test_tilde_phi_identity_and_range():
    assert tilde_phi(2, TreeAut.identity(3)) == 0
    with pytest.raises(ValueError):
        tilde_phi(1, TreeAut.identity(3))
    with pytest.raises(ValueError):
        tilde_phi(2, TreeAut.from_strings(["1", "00"]))  # nonzero abelianization


def test_tilde_phi_commutator_example():
    a = TreeAut.from_strings(["1", "00"])
    b = TreeAut.from_strings(["0", "10"])
    comm = compose(compose(a, b), compose(inverse(a), inverse(b)))
    assert comm.to_strings() == ["0", "11"]
    assert tilde_phi(2, comm) == 1


def commutator_subgroup(depth):
    return [g for g in enumerate_group(depth) if not any(abelianization(g))]


def test_tilde_phi_homomorphism_exhaustive_depth3():
    kernel = commutator_subgroup(3)
    for g in kernel:
        for h in kernel:
            gh = compose(g, h)
            for k in (2, 3):
                assert tilde_phi(k, gh) == tilde_phi(k, g) ^ tilde_phi(k, h)


def test_tilde_phi_homomorphism_sampled_depth4():
    kernel = commutator_subgroup(4)
    assert len(kernel) == (1 << 15) // 16
    rng = random.Random(2)
    for _ in range(1500):
        g, h = rng.choice(kernel), rng.choice(kernel)
        gh = compose(g, h)
        assert tilde_phi(2, gh) == tilde_phi(2, g) ^ tilde_phi(2, h)


def test_in_Mv_examples():
    assert in_Mv(TreeAut.identity(3), {1, 3})
    assert not in_Mv(TreeAut.from_strings(["1", "00", "0000"]), {1})
    with pytest.raises(ValueError):
        in_Mv(IDENT2, {5})


def test_Mv_index_two_for_all_nonzero_vectors_depth3():
    els = list(enumerate_group(3))
    supports = [
        s
        for s in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})
    ]
    for support in supports:
        inside = sum(1 for g in els if in_Mv(g, support))
        assert inside == 64  # index exactly 2


def test_closure_examples():
    assert len(closure(SubgroupGens(1, (TreeAut.from_strings(["1"]),)))) == 2
    assert len(closure(SubgroupGens(3, (TreeAut.identity(3),)))) == 1
    gens = []
    for k in range(1, 4):
        for j in range(1 << (k - 1)):
            levels = [0, 0, 0]
            levels[k - 1] = 1 << j
            gens.append(TreeAut(3, tuple(levels)))
    assert len(closure(SubgroupGens(3, tuple(gens)))) == 128  # 2^(2^3 - 1)


def test_closure_cap():
    g = TreeAut.from_strings(["1", "10", "0010"])
    with pytest.raises(CapExceeded):
        closure(SubgroupGens(3, (g, TreeAut.from_strings(["0", "01", "1000"]))), cap=4)


def test_level_and_faithful_nodes():
    root = SubgroupGens(2, (ROOT2,))
    assert level(root) == 0
    assert faithful_nodes(root) == [""]

    g10 = SubgroupGens(2, (TreeAut.from_strings(["0", "10"]),))
    assert level(g10) == 1
    assert faithful_nodes(g10) == ["0"]

    g11 = SubgroupGens(2, (TreeAut.from_strings(["0", "11"]),))
    assert level(g11) == 1
    assert faithful_nodes(g11) == ["0", "1"]

    with pytest.raises(ValueError):
        level(SubgroupGens(2, (IDENT2,)))


def test_restrict_examples():
    assert restrict(TreeAut.identity(3), "0") == TreeAut.identity(2)
    g = TreeAut.from_strings(["0", "10"])
    assert restrict(g, "0") == TreeAut.from_strings(["1"])
    with pytest.raises(ValueError):
        restrict(ROOT2, "0")  # the root swap moves node "0"


def test_restrict_is_a_homomorphism_depth3():
    els = list(enumerate_group(3))
    for w in ("0", "1"):
        idx = int(w, 2)
        fixing = [g for g in els if act_node(g, idx, 1) == idx]
        for g in fixing:
            rg = restrict(g, w)
            for h in fixing:
                gh = compose(g, h)
                assert act_node(gh, idx, 1) == idx
                assert restrict(gh, w) == compose(rg, restrict(h, w))


def test_verify_noncommutation_small_depths():
    for depth in (1, 2):
        counterexamples, _ = verify_noncommutation(depth)
        assert counterexamples == []


def test_verify_noncommutation_depth3_exhaustive():
    counterexamples, scanned = verify_noncommutation(3)
    assert counterexamples == []
    assert scanned == 16384


def test_verify_noncommutation_depth4_sampled():
    counterexamples, scanned = verify_noncommutation(4, sample=20000, seed=0)
    assert counterexamples == []
    assert scanned == 20000


def test_verify_noncommutation_rejects_bad_input():
    with pytest.raises(ValueError, match="sample"):
        verify_noncommutation(4, sample=-5)
    for depth in (0, MAX_VERIFY_DEPTH + 1, 64):
        with pytest.raises(ValueError, match="depth"):
            verify_noncommutation(depth, sample=1)
    assert verify_noncommutation(4, sample=0) == ([], 0)
    assert verify_noncommutation(MAX_VERIFY_DEPTH, sample=1)[1] == 1


def random_elements(rng, depth, count):
    """`count` portraits from consecutive seeded mask draws."""
    size, split = 1 << ((1 << depth) - 1), _splitter(depth)
    return [TreeAut(depth, split(rng.randrange(size))) for _ in range(count)]


def test_commute_matches_compose_depths_1_to_6():
    rng = random.Random(4)
    outcomes = set()
    for depth in range(1, 7):
        elements = random_elements(rng, depth, 80)
        pairs = list(zip(elements, elements[1:]))
        # pairs known to commute
        for g in elements[:10]:
            pairs += [
                (g, g),
                (g, compose(g, g)),
                (g, inverse(g)),
                (g, TreeAut.identity(depth)),
                (TreeAut.identity(depth), g),
            ]
        cyclic = closure(SubgroupGens(depth, (elements[0],)))
        pairs += [(a, b) for a in cyclic[:8] for b in cyclic[:8]]
        # last-level labels swap disjoint leaf pairs, so these commute too
        last = [
            TreeAut(depth, (0,) * (depth - 1) + (rng.getrandbits(1 << (depth - 1)),))
            for _ in range(2)
        ]
        pairs += [(a, b) for a in closure(SubgroupGens(depth, tuple(last))) for b in last]
        for s, t in pairs:
            commutes = compose(s, t) == compose(t, s)
            assert _commute(s.levels, t.levels) == commutes, (s, t)
            outcomes.add(commutes)
    assert outcomes == {True, False}


def test_verify_noncommutation_never_composes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_noncommutation must not compose portraits")

    monkeypatch.setattr("arboreal.treegroup.compose", refuse)
    assert verify_noncommutation(3) == ([], 16384)
    assert verify_noncommutation(4, sample=2000) == ([], 2000)
    assert verify_noncommutation(5, sample=2000, seed=3) == ([], 2000)


def _criterion_pairs(pairs):
    """The pairs the half-swap criterion forbids from commuting, in order."""
    return [
        (s, t)
        for s, t in pairs
        if phi(1, t) == 1 and any(abelianization(s)) and abelianization(s) != abelianization(t)
    ]


def test_verify_noncommutation_reports_what_the_predicate_accepts(monkeypatch):
    # With a predicate that says every pair commutes, the search returns
    # exactly the pairs its filter lets through, in scan order.
    monkeypatch.setattr("arboreal.treegroup._commute", lambda s, t: True)
    els = list(enumerate_group(2))
    found, scanned = verify_noncommutation(2)
    assert scanned == 64
    assert found == _criterion_pairs([(s, t) for s in els for t in els])

    draws = random_elements(random.Random(DEFAULT_SEED), 4, 2 * 50)
    found, scanned = verify_noncommutation(4, sample=50)
    assert scanned == 50
    assert found == _criterion_pairs(list(zip(draws[::2], draws[1::2])))
    assert found


def test_abelian_subgroups_have_one_dimensional_faithful_image_depth3():
    """Finite-depth echo: an abelian subgroup of level n restricted to any of
    its faithful nodes has at most 1-dimensional abelianization image."""
    els = list(enumerate_group(3))
    rng = random.Random(3)
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(1200)]
    checked = 0
    for g, h in pairs:
        if compose(g, h) != compose(h, g):
            continue
        gens = SubgroupGens(3, (g, h))
        group = closure(gens)
        if all(e.is_identity for e in group):
            continue
        nontrivial = tuple(e for e in group if not e.is_identity)
        gens = SubgroupGens(3, nontrivial)
        n = level(gens)
        for w in faithful_nodes(gens):
            images = {abelianization(restrict(e, w)) for e in group if not e.is_identity}
            images.discard(tuple([0] * (3 - n)))
            assert len(images) <= 1
            checked += 1
    assert checked > 50
