import numpy as np

from subsing import subordinator as sub
from subsing.bernstein import stable
from subsing.rng import stream


def truncation_medians(alpha: float, theta: float, n_paths: int, seed: int,
                       deltas=(1e-2, 1e-5, 1e-8, 1e-11, 1e-14)):
    """Medians of the truncated integrals of t^-theta over (delta, 1].

    One shared ensemble of stable increments on a deep geometric grid; the
    truncation masks are applied per delta.  Per path the truncated integral
    is monotone in delta, so the medians are as well.
    """
    deltas = np.asarray(sorted(deltas, reverse=True))
    times = np.concatenate(([0.0], np.geomspace(deltas[-1], 1.0, 480)))
    rng = stream(seed, 0)
    inc = sub.grid_increments(stable(alpha), times, rng, n_paths)
    nodes = times[1:]
    weights = nodes ** -theta
    meds = []
    for d in deltas:
        vals = (inc * (weights * (nodes >= d))).sum(axis=1)
        meds.append(float(np.median(vals)))
    return deltas, np.array(meds)


def relative_late_growth(medians: np.ndarray) -> float:
    """Last increment of the median sequence relative to its level."""
    return (medians[-1] - medians[-2]) / medians[-1]
