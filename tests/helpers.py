"""Shared test utilities: random state generators and small oracles."""

import numpy as np

from telefock.fock import PureTwoModeState, ResourceState, haar_amplitude_batch


def random_resource(nu: int, rng: np.random.Generator) -> ResourceState:
    """Random full-rank density matrix from a Ginibre draw."""
    g = rng.standard_normal((nu + 1, nu + 1)) + 1j * rng.standard_normal((nu + 1, nu + 1))
    m = g @ g.conj().T
    return ResourceState(nu, m / np.trace(m))


def random_pure_resource(nu: int, rng: np.random.Generator) -> ResourceState:
    return ResourceState.from_amplitudes(haar_amplitude_batch(nu, 1, rng)[0])


def random_input(N: int, rng: np.random.Generator) -> PureTwoModeState:
    return PureTwoModeState(N, haar_amplitude_batch(N, 1, rng)[0])


def reference_monte_carlo(kind: str, rho, N: int, samples: int, rng_seed: int):
    """Per-sector estimator over complex Haar amplitudes: for each sector l,
    one 3-operand contraction of the sample's |c_k|^2 (fidelity) or |c_k|
    (entanglement, off-diagonal moduli) with the block rho[k+l, j+l];
    `kind` "negativity" gives the pure-state negativity of the samples."""
    amps = haar_amplitude_batch(N, samples, np.random.default_rng(rng_seed))
    if kind == "negativity":
        values = (np.sum(np.abs(amps), axis=1) ** 2 - 1.0) / 2.0
    else:
        nu = rho.n_particles
        p = np.abs(amps) ** 2 if kind == "fidelity" else np.abs(amps)
        values = np.zeros(samples)
        for l in range(-N, nu + 1):
            k_lo, k_hi = max(0, -l), min(N, nu - l)
            block = rho.matrix[k_lo + l : k_hi + l + 1, k_lo + l : k_hi + l + 1]
            sub = p[:, k_lo : k_hi + 1]
            if kind == "fidelity":
                values += np.einsum("sk,kj,sj->s", sub, block.real, sub)
            else:
                absb = np.abs(block)
                np.fill_diagonal(absb, 0.0)
                values += 0.5 * np.einsum("sk,kj,sj->s", sub, absb, sub)
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(samples))


def _falling(x: np.ndarray, m: int) -> np.ndarray:
    out = np.ones(x.shape)
    for i in range(m):
        out *= np.maximum(x - i, 0)
    return out


def reference_loss_rhs(spec, nu: int, blocks: list) -> list:
    """The loss master equation's right-hand side block by block: each
    b-particle block damps at eta_k + eta_j, and each channel a_3^m a_4^n
    feeds block b - m - n from block b."""
    block_eta = [
        sum(0.5 * ch.rate * _falling(np.arange(b + 1), ch.m) * _falling(b - np.arange(b + 1), ch.n)
            for ch in spec.channels)
        for b in range(nu + 1)
    ]
    out = [-(eta[:, None] + eta[None, :]) * blk for eta, blk in zip(block_eta, blocks)]
    for ch in spec.channels:
        drop = ch.m + ch.n
        for src in range(drop, nu + 1):
            k = np.arange(ch.m, src - ch.n + 1)
            amp = np.sqrt(_falling(k, ch.m) * _falling(src - k, ch.n))
            sub = blocks[src][ch.m : ch.m + amp.size, ch.m : ch.m + amp.size]
            out[src - drop][: amp.size, : amp.size] += ch.rate * np.outer(amp, amp) * sub
    return out
