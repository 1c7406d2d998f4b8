"""Reference processes: alpha-stable noise, fBm, and ARFIMA(0 or 1, d, 0).

These supply the controlled comparisons for the shuffle decomposition:
iid stable draws carry multifractality purely in the distribution, fBm
carries it purely in the correlation structure, and ARFIMA with stable
innovations combines both (self-similarity index d + 1/alpha).

Stable variates are symmetric (skew beta = 0), centred (location 0) and
of scale sqrt(2)/2, so only the tail index alpha varies; that scale makes
alpha = 2 a unit Gaussian. They use the Chambers-Mallows-Stuck
construction, and the tests check the sampler empirically against the
law's closed-form characteristic function exp(-|u sqrt(2)/2|^alpha).

fBm is generated by circulant embedding of the fractional Gaussian
noise autocovariance

    rho(j) = ((j+1)^2H - 2 j^2H + (j-1)^2H) / 2,

which is exact in distribution: the embedding eigenvalues are
nonnegative for every H in (0, 1), and each increment sample has unit
variance.

ARFIMA needs only numpy. The fractional filter is an FFT convolution
over the smallest 5-smooth length (2^a 3^b 5^c) that holds the full
convolution, the length on which pocketfft runs fastest for real input.
The AR(1) recursion y_k = x_k + phi_1 y_{k-1} is a Python loop over
floats, which keeps every bit scipy.signal's lfilter gives it; it costs
about 1 ms per 9292-step path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParams, _count, _instance, _real, _real_vector
from .series import ReturnSeries

STANDARD_SCALE = math.sqrt(2.0) / 2.0
# MA(inf) coefficients kept by the fractional filter
MA_TRUNCATION = 1000


@dataclass(frozen=True)
class StableParams:
    """Tail index alpha in (0, 2] of the symmetric stable law of scale STANDARD_SCALE."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < _real("alpha", self.alpha) <= 2.0:
            raise InvalidParams(f"alpha must lie in (0, 2], got {self.alpha}")


@dataclass(frozen=True)
class FbmParams:
    """Hurst index in (0, 1) and the number of increments to generate."""

    hurst: float
    length: int

    def __post_init__(self):
        if not 0.0 < _real("hurst", self.hurst) < 1.0:
            raise InvalidParams(f"hurst must lie in (0, 1), got {self.hurst}")
        object.__setattr__(self, "length", _count("length", self.length, least=2))


@dataclass(frozen=True)
class ArfimaParams:
    """AR coefficient (phi_1,) or none, fractional order d, innovation law."""

    ar_coeffs: tuple
    d: float
    stable: StableParams

    def __post_init__(self):
        coeffs = tuple(_real_vector("ar_coeffs", self.ar_coeffs).tolist())
        if not all(map(math.isfinite, coeffs)):
            raise InvalidParams(f"ar_coeffs must be finite, got {coeffs}")
        if len(coeffs) > 1:
            raise InvalidParams(f"ar_coeffs holds at most one coefficient, phi_1, got {coeffs}")
        object.__setattr__(self, "ar_coeffs", coeffs)
        alpha = _instance("stable", self.stable, StableParams).alpha
        if alpha <= 1.0:
            raise InvalidParams(
                f"innovation alpha must lie in (1, 2] for ARFIMA, got {alpha}"
            )
        if not -0.5 < _real("d", self.d) < 1.0 - 1.0 / alpha:
            raise InvalidParams(
                f"d={self.d} outside (-0.5, {1.0 - 1.0 / alpha:.4f}) for alpha={alpha}"
            )
        if not all(abs(c) < 1.0 for c in coeffs):
            raise InvalidParams(f"AR inverse root(s) not inside unit disk: {coeffs}")


def sample_stable(p: StableParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` draws from the symmetric stable law p.

    Chambers-Mallows-Stuck: with V uniform on (-pi/2, pi/2) and W unit
    exponential,

        Z = sin(alpha V) / cos(V)^(1/alpha) * [cos(V - alpha V) / W]^((1-alpha)/alpha)

    and X = STANDARD_SCALE Z. The Cauchy law alpha = 1 needs no case of
    its own: there the last factor is raised to 0, and Z = sin V / cos V
    = tan V.
    """
    n = _count("size", size, least=1)
    alpha = p.alpha
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=n)
    w = rng.standard_exponential(n)
    va = alpha * v
    z = (
        np.sin(va)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - va) / w) ** ((1.0 - alpha) / alpha)
    )
    return STANDARD_SCALE * z


def _embedding_eigs(hurst: float, m: int) -> np.ndarray:
    """Eigenvalues of the circulant embedding of fGn's autocovariance, padded length m."""
    j = np.arange(m + 1, dtype=float)
    h2 = 2.0 * hurst
    rho = 0.5 * ((j + 1.0) ** h2 - 2.0 * j**h2 + np.abs(j - 1.0) ** h2)
    c = np.concatenate([rho, rho[-2:0:-1]])
    return np.fft.fft(c).real


@lru_cache(maxsize=8)
def _embedding_sqrt_eigs(hurst: float, m: int) -> np.ndarray:
    """sqrt of the circulant eigenvalues for fGn of padded length m.

    The embedding is nonnegative for every H in (0, 1) (Craigmile 2003,
    J. Time Ser. Anal. 24:505); the clip only removes rounding below 0,
    which the tests bound for every H and padded length simulate_fbm uses.
    """
    return np.sqrt(np.clip(_embedding_eigs(hurst, m), 0.0, None))


def simulate_fbm(p: FbmParams, rng: np.random.Generator) -> ReturnSeries:
    """The fGn increments of one fBm path.

    Spectral synthesis over the circulant embedding of length 2m (m the
    next power of two >= length): hermitian complex Gaussian weights per
    eigenvalue, one FFT, keep the first `length` real outputs.
    """
    n = p.length
    m = 1 << (n - 1).bit_length()
    sq = _embedding_sqrt_eigs(p.hurst, m)
    xi = rng.standard_normal(m + 1)
    eta = rng.standard_normal(m - 1)
    v = np.empty(2 * m, dtype=complex)
    v[0] = sq[0] * xi[0]
    v[m] = sq[m] * xi[m]
    mid = (xi[1:m] + 1j * eta) / math.sqrt(2.0)
    v[1:m] = sq[1:m] * mid
    v[m + 1 :] = np.conj(v[m - 1 : 0 : -1])
    fgn = (np.fft.fft(v).real / math.sqrt(2.0 * m))[:n]
    return ReturnSeries(fgn)


def _fractional_ma_coeffs(d: float, n: int) -> np.ndarray:
    """Binomial-series coefficients of (1-z)^(-d): psi_0..psi_n.

    psi_0 = 1 and psi_j = psi_{j-1} (j-1+d)/j, so psi_j ~ j^(d-1)/Gamma(d)
    for large j; truncating at n leaves O(n^d / Gamma(d+1)) tail mass.
    d comes from an ArfimaParams, which validates it.
    """
    j = np.arange(1, n + 1, dtype=float)
    psi = np.empty(n + 1)
    psi[0] = 1.0
    np.cumprod((j - 1.0 + d) / j, out=psi[1:])
    return psi


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: the FFT length of a full convolution of n outputs."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-n // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _ar_recursion(x: np.ndarray, phi: float) -> np.ndarray:
    """y_k = x_k + phi y_{k-1} from a zero state, bit for bit scipy.signal's lfilter."""
    ys, prev = [], 0.0
    append = ys.append
    for v in x.tolist():
        prev = v + phi * prev
        append(prev)
    return np.array(ys)


def simulate_arfima(
    p: ArfimaParams, length: int, rng: np.random.Generator
) -> ReturnSeries:
    """Simulate ARFIMA(0 or 1, d, 0) innovations-to-returns.

    Pipeline: iid stable innovations -> truncated MA(inf) fractional
    filter -> AR(1) recursion from a zero state. The first
    MA_TRUNCATION + 100 outputs absorb both startup transients and are
    dropped.
    """
    length = _count("length", length, least=1)
    warmup = MA_TRUNCATION + 100
    total = length + warmup
    w = sample_stable(p.stable, rng, size=total)
    if p.d != 0.0:
        psi = _fractional_ma_coeffs(p.d, MA_TRUNCATION)
        m = _fft_length(total + MA_TRUNCATION)
        w = np.fft.irfft(np.fft.rfft(w, m) * np.fft.rfft(psi, m), m)[:total]
    if p.ar_coeffs:
        w = _ar_recursion(w, p.ar_coeffs[0])
    return ReturnSeries(w[warmup:])
