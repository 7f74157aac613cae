import math

import numpy as np
from hypothesis import settings
from scipy.integrate import quad

# Property tests draw a fixed set of examples: the same ones on every run, no
# example database, and no per-example deadline, so the suite stays
# deterministic and its running time bounded.
settings.register_profile("mtkrr", derandomize=True, max_examples=60, deadline=None, database=None)
settings.load_profile("mtkrr")


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric PSD matrix with sensible conditioning."""
    b = rng.standard_normal((n, n))
    return scale * (b @ b.T) / n


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def quad_tail_integral(a: float, v_upper: float = 1.0) -> float:
    """Adaptive-quadrature oracle for int_0^U u^(a-1)/(1+u)^2 du, U = v_upper/(1 - v_upper).

    The substitution v = u/(1+u) turns the integrand into v^(a-1) (1-v)^(1-a)
    on (0, v_upper); v_upper = 1 gives the whole tail integral B(a, 2-a).
    Near the ends of (0, 2) QUADPACK may stop on extrapolation roundoff
    (``full_output`` keeps that quiet); its own error estimate is then
    authoritative and must stay below 1e-8 relative.
    """
    val, abserr = quad(lambda v: v ** (a - 1) * (1 - v) ** (1 - a), 0.0, v_upper,
                       epsabs=0.0, epsrel=1e-10, limit=200, full_output=1)[:2]
    assert math.isfinite(val) and val > 0 and abserr <= 1e-8 * val, (a, v_upper, val, abserr)
    return val


def quad_kappa(beta: float, delta: float) -> float:
    """kappa(beta, delta) with both tail integrals taken by ``quad_tail_integral``."""
    i1 = quad_tail_integral((1 - 2 * delta) / (2 * beta) + 2)
    i2 = quad_tail_integral(1 / (2 * beta))
    e = 1 / (2 * delta)
    return i1**e * i2 ** (1 - e) * (2 * delta - 1) ** e * delta / (beta * (2 * delta - 1))
