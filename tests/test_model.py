"""Static Hamiltonian construction, drive parameterization and the
active/passive translation."""

import math

import numpy as np
import pytest

from ptfloquet import (
    DrivingSpec,
    driving_from_delta,
    eigenstate_overlap,
    eigenvalues2,
    h_pt,
    passive_shift,
    static_eigs,
)


def test_h_pt_values():
    assert h_pt(1.0, 0.0).coefficients() == (0, -1, 0, 0)
    v = h_pt(1.0, 1.0)
    assert v.coefficients() == (0, -1, 0, 1j)
    g_plus, g_minus = eigenvalues2(v.matrix())
    assert abs(g_plus) <= 1e-15 and abs(g_minus) <= 1e-15  # exceptional point
    g_plus, g_minus = eigenvalues2(h_pt(1.0, 2.0).matrix())
    np.testing.assert_allclose([g_plus, g_minus], [1j * math.sqrt(3), -1j * math.sqrt(3)])


def test_h_pt_rejects_nonpositive_coupling():
    with pytest.raises(ValueError):
        h_pt(0.0, 1.0)
    with pytest.raises(ValueError):
        h_pt(-1.0, 1.0)


def test_h_pt_commutes_with_pt_operation():
    # PT acts as sx * conj(.) * sx; the Hamiltonian must be invariant
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    rng = np.random.default_rng(20)
    for _ in range(100):
        m = h_pt(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.0, 5.0))).matrix()
        np.testing.assert_array_equal(sx @ np.conj(m) @ sx, m)


def test_static_eigs_branches():
    assert static_eigs(1.0, 0.0) == (1.0, -1.0)
    assert static_eigs(1.0, 1.0) == (0.0, 0.0)
    e_plus, e_minus = static_eigs(1.0, 2.0)
    np.testing.assert_allclose([e_plus, e_minus], [1j * math.sqrt(3), -1j * math.sqrt(3)])


def test_static_eigs_matches_dense_eigenvalues():
    rng = np.random.default_rng(21)
    for _ in range(10_000):
        J = float(rng.uniform(0.1, 5.0))
        gamma = float(rng.uniform(0.0, 10.0))
        e_plus, e_minus = static_eigs(J, gamma)
        g_plus, g_minus = eigenvalues2(h_pt(J, gamma).matrix())
        scale = max(1.0, abs(e_plus))
        assert min(abs(e_plus - g_plus), abs(e_plus - g_minus)) <= 1e-13 * scale
        assert min(abs(e_minus - g_plus), abs(e_minus - g_minus)) <= 1e-13 * scale


def test_eigenstate_overlap_values():
    assert eigenstate_overlap(1.0, 1.0) == 1.0
    assert eigenstate_overlap(1.0, 0.5) == 0.5
    assert eigenstate_overlap(1.0, 2.0) == 0.5
    with pytest.raises(ValueError):
        eigenstate_overlap(1.0, 0.0)


def test_eigenstate_overlap_matches_eigenvector_oracle():
    # oracle: normalized eigenvectors of the dense Hamiltonian
    for J, gamma in [(1.0, 2.0), (1.0, 0.3), (2.5, 1.1), (0.7, 0.69)]:
        _, vecs = np.linalg.eig(h_pt(J, gamma).matrix())
        v_plus = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        v_minus = vecs[:, 1] / np.linalg.norm(vecs[:, 1])
        overlap = abs(np.vdot(v_plus, v_minus))
        assert abs(eigenstate_overlap(J, gamma) - overlap) <= 1e-12


def test_driving_from_delta():
    assert driving_from_delta(1.0, 0.0) == (1.0, 1.0, 1.0)
    assert driving_from_delta(1.0, 1.0) == (2.0, 0.0, 0.0)
    assert driving_from_delta(1.0, 3.0) == (4.0, -2.0, -0.5)


def test_driving_from_delta_consistency():
    rng = np.random.default_rng(22)
    for _ in range(200):
        gamma_bar = float(rng.uniform(0.1, 5.0))
        delta = float(rng.uniform(0.0, 20.0))
        gamma_plus, gamma_minus, mu = driving_from_delta(gamma_bar, delta)
        assert abs(gamma_minus / gamma_plus - mu) <= 1e-15 * max(1.0, abs(mu))
        # reconstruction through the mu parameterization
        assert gamma_plus * mu == pytest.approx(gamma_minus, rel=1e-15, abs=1e-15)


def test_passive_shift():
    shifted = passive_shift(h_pt(1.0, 0.5), 0.5)
    assert shifted.coefficients() == (-0.5j, -1, 0, 0.5j)
    g_plus, g_minus = eigenvalues2(shifted.matrix())
    # below threshold both modes decay at the uniform rate
    np.testing.assert_allclose([g_plus.imag, g_minus.imag], [-0.5, -0.5], atol=1e-15)

    h = h_pt(1.3, 0.9)
    assert passive_shift(h, 0.0) == h

    g_plus, g_minus = eigenvalues2(passive_shift(h_pt(1.0, 2.0), 2.0).matrix())
    np.testing.assert_allclose(g_plus, -1j * (2.0 + math.sqrt(3)), atol=1e-14)
    np.testing.assert_allclose(g_minus, -1j * (2.0 - math.sqrt(3)), atol=1e-14)
    # the slow mode decays at rate 2 - sqrt(3), slower than the uniform shift
    assert -g_minus.imag < 2.0


def test_passive_shift_moves_every_eigenvalue_uniformly():
    rng = np.random.default_rng(23)
    for _ in range(200):
        J = float(rng.uniform(0.1, 4.0))
        gamma = float(rng.uniform(0.0, 6.0))
        shift = float(rng.uniform(0.0, 5.0))
        base = eigenvalues2(h_pt(J, gamma).matrix())
        moved = eigenvalues2(passive_shift(h_pt(J, gamma), shift).matrix())
        for b in base:
            target = b - 1j * shift
            nearest = min(abs(moved[0] - target), abs(moved[1] - target))
            assert nearest <= 1e-13 * max(1.0, abs(target))


def test_driving_spec_validation_and_derived_quantities():
    spec = DrivingSpec(gamma0=0.8, mu=0.5, omega=2.0, J=1.0)
    assert spec.tau == math.pi / 2.0
    assert spec.period == math.pi
    assert spec.gamma_plus == 0.8
    assert spec.gamma_minus == 0.4
    assert spec.delta == pytest.approx(1.0 / 3.0)
    assert DrivingSpec(gamma0=1.0, mu=-1.0, omega=1.0).delta == math.inf
    assert DrivingSpec(gamma0=0.0, mu=0.3, omega=1.0).gamma_minus == 0.0

    for bad in [
        dict(gamma0=-0.1, mu=0.0, omega=1.0),
        dict(gamma0=1.0, mu=1.2, omega=1.0),
        dict(gamma0=1.0, mu=-1.0001, omega=1.0),
        dict(gamma0=1.0, mu=0.0, omega=0.0),
        dict(gamma0=1.0, mu=0.0, omega=1.0, J=0.0),
        dict(gamma0=math.nan, mu=0.0, omega=1.0),
        dict(gamma0=1.0, mu=0.0, omega=1e-310),  # 2 pi / omega overflows
    ]:
        with pytest.raises(ValueError):
            DrivingSpec(**bad)
