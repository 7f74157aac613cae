import numpy as np
from hypothesis import settings

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
