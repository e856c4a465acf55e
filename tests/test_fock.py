"""Tests for truncated Fock bases, operators, and particle-hole structure."""

import itertools
import math

import numpy as np
import pytest

from bfmix.errors import CapacityError, ValidationError
from bfmix.fock import (
    ExcitationConfig,
    ModeSet,
    OperatorHandle,
    _OffChargeSpace,
    _ph_image,
    _sign_annihilate,
    build_basis,
    build_physical_basis,
    hamiltonian,
    inequality_suite,
    operator,
    particle_hole_check,
    pull_through_check,
)
from bfmix.potentials import (
    FOURIER_FACTOR,
    coupling_scale,
    from_coefficients,
    zero_potential,
)
from bfmix.util import rng

SIX_MODES = [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (1, 1, 0), (-1, -1, 0), (2, 0, 0)]


def save_dense_csv(op: OperatorHandle, path: str) -> None:
    """Write the dense matrix of a small operator to CSV (17 significant digits)."""
    np.savetxt(path, op.dense(), delimiter=",", fmt="%.17g")


def six_mode_set() -> ModeSet:
    return ModeSet(SIX_MODES, kf2=1, symmetric=False)


def sample_v():
    return from_coefficients(
        {(1, 0, 0): 0.55, (1, 1, 0): -0.3, (0, 0, 0): 0.2}, cutoff=2, label="v"
    )


def sample_w():
    return from_coefficients(
        {(0, 0, 0): 0.7, (1, 0, 0): 0.4, (0, 1, 0): -0.25, (0, 0, 1): 0.15},
        cutoff=1,
        label="w",
    )


def draw_potentials(seed: int, index: int):
    """Seeded random symmetric coefficient tables on the six-mode instance."""
    gen = rng(seed, index)
    v_candidates = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (2, 0, 0),
        (0, 0, 1),
    ]
    w_candidates = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    v_entries = {}
    for m in v_candidates:
        if gen.uniform() < 0.6:
            v_entries[m] = float(gen.uniform(-1.0, 1.0))
    w_entries = {}
    for m in w_candidates:
        if gen.uniform() < 0.7:
            w_entries[m] = float(gen.uniform(-1.0, 1.0))
    v = from_coefficients(v_entries, cutoff=2, label=f"v{index}")
    w = from_coefficients(w_entries, cutoff=2, label=f"w{index}")
    return v, w


class TestModeSet:
    def test_ball_mode_count(self):
        ms = ModeSet.ball(4, 1)
        assert len(ms) == 33
        shells = {}
        for m in ms:
            n2 = sum(c * c for c in m)
            shells[n2] = shells.get(n2, 0) + 1
        assert shells == {0: 1, 1: 6, 2: 12, 3: 8, 4: 6}

    def test_inside_outside_split(self):
        ms = ModeSet.ball(4, 1)
        assert ms.n_inside == 7
        assert ms.n_outside == 26
        for i in ms.inside_indices:
            assert sum(c * c for c in ms.modes[i]) <= 1
        for i in ms.outside_indices:
            assert sum(c * c for c in ms.modes[i]) > 1

    def test_ordering_by_shell_then_lex(self):
        ms = ModeSet.ball(4, 2)
        norms = [sum(c * c for c in m) for m in ms.modes]
        assert norms == sorted(norms)
        assert ms.modes[0] == (0, 0, 0)
        for a, b in zip(ms.modes, ms.modes[1:]):
            na, nb = sum(c * c for c in a), sum(c * c for c in b)
            assert (na, a) < (nb, b)

    def test_fermi_energy(self):
        assert ModeSet.ball(1, 1).fermi_energy == 6.0
        assert six_mode_set().fermi_energy == 2.0

    def test_negation_closure_enforced(self):
        with pytest.raises(ValidationError):
            ModeSet([(0, 0, 0), (1, 0, 0)], kf2=1)
        ms = ModeSet([(0, 0, 0), (1, 0, 0)], kf2=1, symmetric=False)
        assert len(ms) == 2

    def test_index_lookup(self):
        ms = ModeSet.ball(4, 1)
        for i, m in enumerate(ms.modes):
            assert ms.index_of(m) == i
            assert m in ms
        assert (9, 9, 9) not in ms
        with pytest.raises(ValidationError):
            ms.index_of((9, 9, 9))

    def test_validation(self):
        with pytest.raises(ValidationError):
            ModeSet([(0, 0, 0)], kf2=0)
        with pytest.raises(ValidationError):
            ModeSet([(0, 0, 0), (0, 0, 0)], kf2=1)
        with pytest.raises(ValidationError):
            ModeSet([(0, 0.5, 0)], kf2=1)
        with pytest.raises(ValidationError):
            ModeSet([], kf2=1)


class TestBuildBasis:
    def test_two_bosons_no_pairs(self):
        ms = ModeSet.ball(1, 1)
        basis = build_basis(ms, ms.modes, 2, 0)
        assert basis.dimension == 28

    def test_vacuum_plus_single_pairs(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        assert basis.dimension == 1 + 7 * 26

    def test_empty_system(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 0)
        assert basis.dimension == 1

    def test_capacity_error_reports_dimension(self):
        ms = ModeSet.ball(1, 1)
        with pytest.raises(CapacityError, match="28"):
            build_basis(ms, ms.modes, 2, 0, max_dimension=10)

    def test_momentum_sectors_partition(self):
        ms = ModeSet.ball(2, 1)
        seven = ModeSet.ball(1, 1).modes
        full = build_basis(ms, seven, 1, 1)
        totals = {}
        for i in range(full.dimension):
            boson, exc = full.state_at(i)
            mom = np.zeros(3, dtype=int)
            for occ, mode in zip(boson.occupations, full.boson_modes):
                mom += occ * np.array(mode)
            for p in exc.particles:
                mom += np.array(p)
            for h in exc.holes:
                mom -= np.array(h)
            totals[tuple(mom)] = totals.get(tuple(mom), 0) + 1
        sector_total = 0
        for sector, count in totals.items():
            sb = build_basis(ms, seven, 1, 1, momentum_sector=sector)
            assert sb.dimension == count
            sector_total += sb.dimension
        assert sector_total == full.dimension

    def test_sector_states_have_requested_momentum(self):
        ms = ModeSet.ball(2, 1)
        seven = ModeSet.ball(1, 1).modes
        basis = build_basis(ms, seven, 1, 1, momentum_sector=(1, 0, 0))
        assert basis.dimension > 0
        for i in range(basis.dimension):
            boson, exc = basis.state_at(i)
            mom = np.zeros(3, dtype=int)
            for occ, mode in zip(boson.occupations, basis.boson_modes):
                mom += occ * np.array(mode)
            for p in exc.particles:
                mom += np.array(p)
            for h in exc.holes:
                mom -= np.array(h)
            assert tuple(mom) == (1, 0, 0)

    def test_boson_modes_must_be_subset(self):
        ms = ModeSet.ball(1, 1)
        with pytest.raises(ValidationError):
            build_basis(ms, [(5, 5, 5)], 1, 0)

    def test_deterministic_enumeration(self):
        ms = ModeSet.ball(2, 1)
        seven = ModeSet.ball(1, 1).modes
        a = build_basis(ms, seven, 1, 1)
        b = build_basis(ms, seven, 1, 1)
        assert a.dimension == b.dimension
        for i in range(a.dimension):
            assert a.state_at(i) == b.state_at(i)

    def test_index_roundtrip(self):
        ms = ModeSet.ball(1, 1)
        basis = build_basis(ms, ms.modes, 2, 1)
        for i in range(basis.dimension):
            boson, exc = basis.state_at(i)
            assert basis.index_of(boson, exc) == i

    def test_zero_charge_enforced(self):
        with pytest.raises(ValidationError):
            ExcitationConfig(((1, 1, 0),), ())


class TestBosonNormalization:
    def test_pair_interaction_matches_first_quantized_quadrature(self):
        """Two bosons: the second-quantized pair interaction must agree with
        the symmetrized first-quantized matrix of half the pair potential,
        whose integrals are taken by exact grid quadrature."""
        ms = ModeSet.ball(1, 1)
        modes = ms.modes
        w = sample_w()
        basis = build_basis(ms, modes, 2, 0)
        dense = operator("boson_interaction", basis, w=w).dense()

        n = 8
        grid = w.grid_values(n)
        coords = 2.0 * math.pi * np.arange(n) / n

        def integral(m):
            phase = np.exp(
                1j
                * (
                    m[0] * coords[:, None, None]
                    + m[1] * coords[None, :, None]
                    + m[2] * coords[None, None, :]
                )
            )
            return (2.0 * math.pi) ** 3 * np.mean(grid * phase)

        d = len(modes)
        product = np.zeros((d * d, d * d))
        for (i1, k1), (i2, k2) in itertools.product(enumerate(modes), repeat=2):
            for (j1, q1), (j2, q2) in itertools.product(
                enumerate(modes), repeat=2
            ):
                if tuple(np.add(k1, k2)) != tuple(np.add(q1, q2)):
                    continue
                m = tuple(np.subtract(q1, k1))
                val = 0.5 * (2.0 * math.pi) ** (-3) * integral(m)
                assert abs(val.imag) < 1e-13
                product[i1 * d + i2, j1 * d + j2] = val.real

        embed = np.zeros((d * d, basis.dimension))
        for col in range(basis.dimension):
            occ = basis.state_at(col)[0].occupations
            occupied = [i for i, c in enumerate(occ) if c]
            if len(occupied) == 1:
                i = occupied[0]
                embed[i * d + i, col] = 1.0
            else:
                i, j = occupied
                embed[i * d + j, col] = 1.0 / math.sqrt(2.0)
                embed[j * d + i, col] = 1.0 / math.sqrt(2.0)

        projected = embed.T @ product @ embed
        assert np.max(np.abs(projected - dense)) < 1e-12


class TestOperators:
    def test_excitation_kinetic_eigenvalues(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        t = operator("excitation_kinetic", basis).dense()
        assert np.allclose(t, np.diag(np.diag(t)))
        for i in range(basis.dimension):
            exc = basis.state_at(i)[1]
            if not exc.particles:
                assert t[i, i] == 0.0
                continue
            p2 = sum(c * c for c in exc.particles[0])
            h2 = sum(c * c for c in exc.holes[0])
            assert t[i, i] == p2 - h2
            assert t[i, i] == abs(p2 - 1) + abs(1 - h2)

    def test_pair_number_counts_pairs(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        n_plus = operator("pair_number", basis).matrix()
        for i in range(basis.dimension):
            exc = basis.state_at(i)[1]
            assert n_plus[i, i] == exc.pair_count

    def test_pair_annihilate_kills_vacuum_sector(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, 1, 1)
        vm = operator("pair_annihilate", basis, v=sample_v()).matrix()
        vp = operator("pair_create", basis, v=sample_v()).matrix()
        for i in range(basis.dimension):
            if basis.state_at(i)[1].pair_count == 0:
                assert vm[:, i].nnz == 0
                assert vp[i, :].nnz == 0

    def test_create_annihilate_are_transposes(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, 1, 1)
        v = sample_v()
        vp = operator("pair_create", basis, v=v).matrix()
        vm = operator("pair_annihilate", basis, v=v).matrix()
        diff = (vp - vm.T).tocsr()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) < 1e-12

    def test_scatter_is_symmetric(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, 1, 1)
        vd = operator("pair_scatter", basis, v=sample_v()).matrix()
        diff = (vd - vd.T).tocsr()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) < 1e-12

    def test_hamiltonian_composition(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, 1, 1)
        v, w = sample_v(), sample_w()
        lam = 0.3
        ham = operator("excitation_hamiltonian", basis, v=v, w=w, lam=lam)
        parts = (
            operator("boson_kinetic", basis).matrix()
            + operator("boson_interaction", basis, w=w).matrix()
            + operator("excitation_kinetic", basis).matrix()
            + lam
            * (
                operator("pair_create", basis, v=v).matrix()
                + operator("pair_annihilate", basis, v=v).matrix()
                + operator("pair_scatter", basis, v=v).matrix()
            )
        )
        diff = (ham.matrix() - parts).tocsr()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) < 1e-14
        sym = (ham.matrix() - ham.matrix().T).tocsr()
        assert sym.nnz == 0 or np.max(np.abs(sym.data)) < 1e-12

    def test_default_coupling_scale(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, 2, 1)
        ham = hamiltonian(basis, sample_v(), sample_w())
        assert ham.lam == coupling_scale(2, 1)

    def test_hard_truncation_annihilates_out_of_range_shifts(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, [(0, 0, 0)], 1, 1)
        v = from_coefficients({(1, 0, 0): 1.0}, cutoff=1)
        assert operator("pair_create", basis, v=v).matrix().nnz == 0
        assert operator("pair_annihilate", basis, v=v).matrix().nnz == 0

    def test_charge_vanishes_on_basis(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        assert operator("charge", basis).matrix().nnz == 0

    def test_apply_matches_matrix_and_validates_shape(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, 1, 1)
        ham = hamiltonian(basis, sample_v(), sample_w())
        vec = rng(3, 0).standard_normal(basis.dimension)
        np.testing.assert_array_equal(ham.apply(vec), ham.matrix() @ vec)
        with pytest.raises(ValidationError):
            ham.apply(np.zeros(basis.dimension + 1))

    def test_operator_validation(self):
        ms = ModeSet.ball(1, 1)
        basis = build_basis(ms, ms.modes, 1, 0)
        with pytest.raises(ValidationError):
            operator("nonsense", basis)
        with pytest.raises(ValidationError):
            operator("pair_create", basis)
        with pytest.raises(ValidationError):
            operator("boson_interaction", basis)
        with pytest.raises(ValidationError):
            operator("full_hamiltonian", basis, v=sample_v(), w=sample_w())


def _dense_fermion_ladders(n_modes: int):
    """All-subset fermion Fock over n modes with annihilator matrices."""
    configs = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(range(n_modes), r) for r in range(n_modes + 1)
        ),
        key=lambda c: (len(c), c),
    )
    index = {c: i for i, c in enumerate(configs)}
    dim = len(configs)
    ladders = []
    for j in range(n_modes):
        mat = np.zeros((dim, dim))
        for c, occ in enumerate(configs):
            step = _sign_annihilate(occ, j)
            if step is None:
                continue
            sign, new = step
            mat[index[new], c] = sign
        ladders.append(mat)
    return configs, index, ladders


class TestParticleHole:
    def test_unitary_defining_relation_dense(self):
        """Conjugation sends each annihilator to itself outside the Fermi
        surface and to the matching creator inside it, on the full 64-state
        fermion Fock space of the six-mode instance."""
        ms = six_mode_set()
        configs, index, ladders = _dense_fermion_ladders(6)
        dim = len(configs)
        r = np.zeros((dim, dim))
        for c, occ in enumerate(configs):
            sign, image = _ph_image(occ, ms.inside_indices)
            r[index[image], c] = sign
        np.testing.assert_array_equal(r.T @ r, np.eye(dim))
        for j in range(6):
            conjugated = r.T @ ladders[j] @ r
            if ms.inside_flags[j]:
                np.testing.assert_array_equal(conjugated, ladders[j].T)
            else:
                np.testing.assert_array_equal(conjugated, ladders[j])

    def test_free_case_residual_is_exactly_zero(self):
        ms = six_mode_set()
        boson_modes = [ms.modes[i] for i in ms.inside_indices]
        residual = particle_hole_check(
            ms, boson_modes, 1, zero_potential(), zero_potential()
        )
        assert residual == 0.0

    def test_six_mode_instance_one_boson(self):
        ms = six_mode_set()
        boson_modes = [ms.modes[i] for i in ms.inside_indices]
        residual = particle_hole_check(ms, boson_modes, 1, sample_v(), sample_w())
        assert residual <= 1e-10

    def test_six_mode_instance_two_bosons(self):
        ms = six_mode_set()
        boson_modes = [ms.modes[i] for i in ms.inside_indices]
        residual = particle_hole_check(ms, boson_modes, 2, sample_v(), sample_w())
        assert residual <= 1e-10

    def test_seeded_random_potentials(self):
        ms = six_mode_set()
        boson_modes = [ms.modes[i] for i in ms.inside_indices]
        for i in range(20):
            v, w = draw_potentials(77, i)
            residual = particle_hole_check(ms, boson_modes, 1, v, w)
            assert residual <= 1e-10, f"draw {i}: residual {residual}"

    def test_explicit_coupling_strength(self):
        ms = six_mode_set()
        boson_modes = [ms.modes[i] for i in ms.inside_indices]
        residual = particle_hole_check(
            ms, boson_modes, 1, sample_v(), sample_w(), lam=0.35
        )
        assert residual <= 1e-10

    def test_conjugated_requires_matching_basis(self):
        ms = six_mode_set()
        basis = build_basis(ms, (), 0, 1)
        with pytest.raises(ValidationError):
            operator(
                "conjugated_hamiltonian", basis, v=sample_v(), w=sample_w()
            ).matrix()


class TestPullThrough:
    def test_identity_function_is_exact(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        assert pull_through_check(basis, lambda t: t, (1, 1, 0)) <= 1e-12

    def test_resolvent_function_inside_mode(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        assert pull_through_check(basis, lambda t: 1.0 / (1.0 + t), (1, 0, 0)) <= 1e-10

    def test_resolvent_function_outside_mode(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        assert pull_through_check(basis, lambda t: 1.0 / (1.0 + t), (2, 0, 0)) <= 1e-10

    def test_constant_function_commutes_exactly(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        assert pull_through_check(basis, lambda t: 2.5, (1, 1, 0)) == 0.0

    def test_unknown_mode_rejected(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        with pytest.raises(ValidationError):
            pull_through_check(basis, lambda t: t, (9, 9, 9))


class TestCanonicalAnticommutators:
    def test_dense_relations_on_six_modes(self):
        ms = six_mode_set()
        space = _OffChargeSpace(ms, 3, 3)
        assert len(space.configs) == 64
        eye = np.eye(64)
        ladders = [space.ladder(j, False).toarray() for j in range(6)]
        creators = [space.ladder(j, True).toarray() for j in range(6)]
        for i in range(6):
            np.testing.assert_array_equal(creators[i], ladders[i].T)
            for j in range(6):
                anti = ladders[i] @ creators[j] + creators[j] @ ladders[i]
                expected = eye if i == j else np.zeros((64, 64))
                np.testing.assert_array_equal(anti, expected)
                zero = ladders[i] @ ladders[j] + ladders[j] @ ladders[i]
                np.testing.assert_array_equal(zero, np.zeros((64, 64)))


class TestInequalities:
    def test_no_violations_on_random_states(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ms.modes, 1, 1)
        v = from_coefficients(
            {(1, 0, 0): 0.5, (1, 1, 0): -0.25, (2, 0, 0): 0.1}, cutoff=2
        )
        report = inequality_suite(basis, v, trials=200, seed=5)
        assert report.passed
        assert report.kinetic_violations == 0
        assert report.scatter_violations == 0
        assert report.worst_kinetic_margin >= -1e-12
        assert report.worst_scatter_margin >= -1e-12

    def test_pairless_basis_is_marginal(self):
        ms = ModeSet.ball(1, 1)
        basis = build_basis(ms, ms.modes, 1, 0)
        report = inequality_suite(basis, sample_v(), trials=20, seed=1)
        assert report.passed
        assert abs(report.worst_kinetic_margin) < 1e-12
        assert abs(report.worst_scatter_margin) < 1e-12

    def test_zero_potential_passes(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, (), 0, 1)
        report = inequality_suite(basis, zero_potential(), trials=20, seed=2)
        assert report.passed


class TestMomentumConservation:
    def _total_momenta(self, basis):
        totals = []
        for i in range(basis.dimension):
            boson, exc = basis.state_at(i)
            mom = np.zeros(3, dtype=int)
            for occ, mode in zip(boson.occupations, basis.boson_modes):
                mom += occ * np.array(mode)
            for p in exc.particles:
                mom += np.array(p)
            for h in exc.holes:
                mom -= np.array(h)
            totals.append(tuple(mom))
        return totals

    def test_hamiltonian_commutes_with_momentum(self):
        ms = ModeSet.ball(2, 1)
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, 1, 1)
        totals = self._total_momenta(basis)
        ham = hamiltonian(basis, sample_v(), sample_w()).matrix().tocoo()
        for row, col in zip(ham.row, ham.col):
            assert totals[row] == totals[col]


class TestDeterminism:
    def test_rebuilt_operator_is_bit_identical(self):
        ms = ModeSet.ball(4, 1)
        v, w = sample_v(), sample_w()

        def build():
            basis = build_basis(ms, ModeSet.ball(1, 1).modes, 1, 1)
            return hamiltonian(basis, v, w).matrix()

        a, b = build(), build()
        assert a.data.tobytes() == b.data.tobytes()
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.indptr.tobytes() == b.indptr.tobytes()

    def test_apply_is_bit_identical(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, 1, 1)
        ham = hamiltonian(basis, sample_v(), sample_w())
        vec = rng(9, 0).standard_normal(basis.dimension)
        assert ham.apply(vec).tobytes() == ham.apply(vec).tobytes()


class TestMetadataAndExport:
    def test_basis_metadata(self):
        ms = ModeSet.ball(1, 1)
        basis = build_basis(ms, ms.modes, 2, 1, momentum_sector=(0, 0, 0))
        meta = basis.metadata()
        assert meta["dimension"] == basis.dimension
        assert meta["n_bosons"] == 2
        assert meta["momentum_sector"] == [0, 0, 0]
        assert meta["mode_set"]["kf2"] == 1
        assert sum(meta["states_per_pair_count"].values()) == basis.dimension

    def test_operator_metadata(self):
        ms = ModeSet.ball(1, 1)
        basis = build_basis(ms, ms.modes, 1, 0)
        ham = hamiltonian(basis, sample_v(), sample_w())
        meta = ham.metadata()
        assert meta["kind"] == "excitation_hamiltonian"
        assert meta["dimension"] == basis.dimension
        assert meta["lambda"] == coupling_scale(1, 1)

    def test_dense_csv_roundtrip(self, tmp_path):
        ms = ModeSet.ball(1, 1)
        basis = build_basis(ms, ms.modes, 1, 0)
        ham = hamiltonian(basis, sample_v(), sample_w())
        path = tmp_path / "dense.csv"
        save_dense_csv(ham, str(path))
        loaded = np.loadtxt(path, delimiter=",")
        np.testing.assert_array_equal(loaded, ham.dense())

    def test_dense_export_capped(self):
        ms = ModeSet.ball(4, 1)
        basis = build_basis(ms, ms.modes, 1, 1)
        ham = hamiltonian(basis, sample_v(), sample_w())
        assert basis.dimension > 5000
        with pytest.raises(CapacityError):
            ham.dense()


class TestPhysicalBasis:
    def test_dimension_and_capacity(self):
        ms = six_mode_set()
        boson_modes = [ms.modes[i] for i in ms.inside_indices]
        phys = build_physical_basis(ms, boson_modes, 1)
        assert phys.fermion_count == 3
        assert phys.dimension == math.comb(6, 3) * 3
        with pytest.raises(CapacityError):
            build_physical_basis(ms, boson_modes, 1, max_dimension=10)

    def test_full_hamiltonian_is_symmetric(self):
        ms = six_mode_set()
        boson_modes = [ms.modes[i] for i in ms.inside_indices]
        phys = build_physical_basis(ms, boson_modes, 1)
        full = operator(
            "full_hamiltonian", phys, v=sample_v(), w=sample_w(), lam=0.4
        ).matrix()
        diff = (full - full.T).tocsr()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) < 1e-12
