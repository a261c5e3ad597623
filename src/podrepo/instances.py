"""Test-system construction and departure-sequence generation.

Two canonical systems: a 10-place/10-pod line for qualitative analysis and a
504-place/441-pod grid for realistic runs.  Departures are generated under
four uniformity regimes, all reproducible from a 64-bit seed via PCG64.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .core import CostModel, Instance, InvalidInstanceError, validate_instance

REGIME_RANDOM_GEOMETRIC = "random-geometric"
REGIME_RANDOM_UNIFORM = "random-uniform"
REGIME_PERIODIC_RANDOM = "periodic-random"
REGIME_PERIODIC = "periodic"

REGIMES = (REGIME_RANDOM_GEOMETRIC, REGIME_RANDOM_UNIFORM,
           REGIME_PERIODIC_RANDOM, REGIME_PERIODIC)


def rng_from_seed(seed: int) -> np.random.Generator:
    """The project-wide generator; PCG64 streams are stable across platforms."""
    return np.random.Generator(np.random.PCG64(seed))


def geometric_weights(n_pods: int, ratio: float) -> list[float]:
    """Truncated-geometric pod weights with first/last weight ratio ``ratio``.

    w_h is proportional to q**h with q = ratio**(-1/(n_pods-1)), normalized
    to sum 1, so pod 1 is the most frequently used.
    """
    if n_pods < 1:
        raise ValueError("n_pods must be >= 1")
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    if n_pods == 1 or ratio == 1:
        return [1.0 / n_pods] * n_pods
    q = ratio ** (-1.0 / (n_pods - 1))
    raw = [q ** h for h in range(1, n_pods + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def _pod_weight_vector(pod_weights: Sequence[float]) -> np.ndarray:
    """Pod weights as an array indexed by pod id (entry 0 unused), checked
    once: every weight must be finite and non-negative."""
    weights = np.concatenate(([0.0], np.asarray(pod_weights, dtype=float)))
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise ValueError("pod weights must be finite and non-negative")
    return weights


def _station_cdf(station_weights: Sequence[float]) -> np.ndarray:
    """The cumulative distribution ``Generator.choice(k, p=station_weights)``
    builds, after the same check that the weights are probabilities."""
    p = np.asarray(station_weights, dtype=float)
    if not ((p >= 0).all() and abs(p.sum() - 1.0) <= np.sqrt(np.finfo(float).eps)):
        raise ValueError("station weights must be non-negative and sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _pick(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn from ``cdf`` with one double, as ``Generator.choice`` does."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _draw_block(rng: np.random.Generator, stations: np.ndarray, n: int,
                station_first: bool) -> tuple[list[float], list[int]]:
    """The pod doubles and the 1-based stations of ``n`` steps (none for
    ``n <= 0``), drawn as one block of two doubles per step: the station's
    first if ``station_first``, else the pod's.  Each station is picked from
    the cdf ``stations`` as :func:`_pick` would pick it from its double."""
    u = rng.random(2 * max(n, 0))
    station_u, pod_u = (u[0::2], u[1::2]) if station_first else (u[1::2], u[0::2])
    return pod_u.tolist(), (stations.searchsorted(station_u, side="right") + 1).tolist()


def _draw_pod(weights: np.ndarray, in_storage: np.ndarray, u: float) -> int:
    """The stored pod that the uniform double ``u`` draws, with probability
    proportional to its weight.

    ``weights`` and the bool mask ``in_storage`` are indexed by pod id.  With
    ``u = rng.random()`` the draw is bit-identical to
    ``pods[rng.choice(len(pods), p=w / w.sum())]`` over
    ``pods = sorted(storage)``: boolean indexing keeps pod ids ascending, and
    the cdf is ``choice``'s own ``cumsum(w / total)``.  ``choice`` then
    divides the cdf by its last entry and takes the first index whose entry
    is above ``u``.  That divide is skipped here: a correctly rounded
    division by the positive last entry is monotone, so the index found for
    ``u * last`` is settled by comparing the few quotients around it.

    The caller owns the stream: the random regimes of
    :func:`generate_departures` pass the second double of each step's pair
    (after the station's), the seasonal and plain medium builders the first.
    """
    w = weights[in_storage]
    if not w.size:
        raise ValueError("storage is empty")
    total = np.add.reduce(w)
    if not 0.0 < total < np.inf:
        raise ValueError("the stored pods' weights must have a positive, finite sum")
    w /= total
    cdf = np.add.accumulate(w)
    last = cdf.item(-1)
    i = int(cdf.searchsorted(u * last, side="right"))
    while i and cdf.item(i - 1) / last > u:
        i -= 1
    while cdf.item(i) / last <= u:
        i += 1
    return int(in_storage.nonzero()[0][i])


def co_simulated_departures(
        n_pods: int,
        station_capacities: Sequence[int],
        initial_storage: Sequence[Optional[int]],
        initial_queues: Sequence[Sequence[int]],
        n: int,
        draw: Callable[[int, np.ndarray], tuple[int, int]],
) -> tuple[tuple[int, int], ...]:
    """Build a departure sequence by co-simulating the (action-independent)
    storage membership and queue dynamics.

    Membership is a bool mask indexed by pod id (entry 0 unused), updated in
    place; ``draw(t, in_storage)`` must return a departure whose pod is set
    in it, and must not change it.  The loop draws nothing itself and calls
    ``draw`` once per step in step order, so the stream order is the draw's:
    :func:`generate_departures` states its regimes' orders, and the seasonal
    and plain medium builders of :mod:`podrepo.harness` draw one block of
    uniforms per season or per instance, each step's pod double before its
    station double.
    """
    in_storage = np.zeros(n_pods + 1, dtype=bool)
    in_storage[[h for h in initial_storage if h is not None]] = True
    queues = [list(q) for q in initial_queues]
    departures: list[tuple[int, int]] = []
    for t in range(n):
        pod, station = draw(t, in_storage)
        if not (0 < pod <= n_pods and in_storage[pod]):
            raise InvalidInstanceError(f"draw at step {t} chose pod {pod} not in storage")
        if not 0 < station <= len(queues):
            raise InvalidInstanceError(f"draw at step {t} chose unknown station {station}")
        in_storage[pod] = False
        q = queues[station - 1]
        if len(q) < station_capacities[station - 1]:
            q.append(pod)
        else:
            in_storage[q.pop(0)] = True
            q.append(pod)
        departures.append((pod, station))
    return tuple(departures)


def generate_departures(
        n_pods: int,
        station_capacities: Sequence[int],
        initial_storage: Sequence[Optional[int]],
        initial_queues: Sequence[Sequence[int]],
        regime: str,
        seed: int,
        n: int,
        pod_weights: Optional[Sequence[float]] = None,
        station_weights: Optional[Sequence[float]] = None,
) -> tuple[tuple[int, int], ...]:
    """Generate ``n`` departures under one of the four uniformity regimes.

    Stream order of the generator seeded with ``seed``: ``periodic`` draws
    nothing.  The two random regimes draw one block of ``2 * n`` doubles up
    front, each step's station double and then its pod double.
    ``periodic-random`` draws step by step: a permutation of the pods
    whenever its current block runs out, then the step's station double.
    """
    n_stations = len(station_capacities)
    if station_weights is None:
        station_weights = [1.0 / n_stations] * n_stations

    if regime == REGIME_PERIODIC:
        return tuple(((t % n_pods) + 1, (t % n_stations) + 1) for t in range(n))

    rng = rng_from_seed(seed)
    stations = _station_cdf(station_weights)

    if regime in (REGIME_RANDOM_GEOMETRIC, REGIME_RANDOM_UNIFORM):
        if regime == REGIME_RANDOM_UNIFORM or pod_weights is None:
            pod_weights = [1.0 / n_pods] * n_pods
        weights = _pod_weight_vector(pod_weights)
        pod_u, picks = _draw_block(rng, stations, n, station_first=True)

        def draw(t: int, in_storage: np.ndarray) -> tuple[int, int]:
            return _draw_pod(weights, in_storage, pod_u[t]), picks[t]

        return co_simulated_departures(n_pods, station_capacities, initial_storage,
                                       initial_queues, n, draw)

    if regime == REGIME_PERIODIC_RANDOM:
        block: list[int] = []

        def draw(t: int, in_storage: np.ndarray) -> tuple[int, int]:
            nonlocal block
            while True:
                if not block:
                    block = (rng.permutation(n_pods) + 1).tolist()
                pod = block[0]
                if in_storage[pod]:
                    block.pop(0)
                    break
                # correction rule: swap with the next in-storage pod in the
                # block, skip to a fresh block when there is none
                for j in range(1, len(block)):
                    if in_storage[block[j]]:
                        block[0], block[j] = block[j], block[0]
                        break
                else:
                    block = []
                    continue
                pod = block.pop(0)
                break
            return pod, _pick(stations, rng) + 1

        return co_simulated_departures(n_pods, station_capacities, initial_storage,
                                       initial_queues, n, draw)

    raise ValueError(f"unknown regime: {regime}")


# --- line systems ----------------------------------------------------------

SMALL_N_PODS = 10
SMALL_N_PLACES = 10
SMALL_QUEUE_CAPACITY = 2
SMALL_WEIGHT_RATIO = 20.0
SMALL_BASE_COST = 4


def _line_costs(n_places: int) -> CostModel:
    """1-D line storage, two symmetric stations: cost(p, s) = p + 4 both ways."""
    row = tuple(float(p + SMALL_BASE_COST) for p in range(1, n_places + 1))
    return CostModel(to_station=tuple((c, c) for c in row), from_station=(row, row))


def _line_system(n_pods: int, queue_capacity: int, regime: str,
                 seed: int, n: int) -> Instance:
    """Line system with pods = places, pre-sorted pods, geometric ratio-20
    weights and two symmetric stations of equal weight, with departures under
    ``regime``."""
    initial_storage = tuple(range(1, n_pods + 1))
    initial_queues = ((), ())
    capacities = (queue_capacity, queue_capacity)
    departures = generate_departures(
        n_pods, capacities, initial_storage, initial_queues,
        regime=regime, seed=seed, n=n,
        pod_weights=geometric_weights(n_pods, SMALL_WEIGHT_RATIO),
        station_weights=(0.5, 0.5))
    inst = Instance(n_pods=n_pods, n_places=n_pods, station_capacities=capacities,
                    costs=_line_costs(n_pods),
                    initial_storage=initial_storage, initial_queues=initial_queues,
                    departures=departures)
    validate_instance(inst)
    return inst


def build_small_system(seed: int = 1, n: int = 1000,
                       regime: str = REGIME_RANDOM_GEOMETRIC) -> Instance:
    """The 10-place/10-pod system: pre-sorted pods, geometric ratio-20 weights,
    two symmetric stations of capacity 2, equal station weights."""
    return _line_system(SMALL_N_PODS, SMALL_QUEUE_CAPACITY, regime, seed, n)


# --- medium test system ----------------------------------------------------

MEDIUM_N_PODS = 441
MEDIUM_GRID_W = 28
MEDIUM_GRID_H = 18
MEDIUM_N_PLACES = MEDIUM_GRID_W * MEDIUM_GRID_H
# stations sit below the grid at different columns and depths (asymmetric)
MEDIUM_STATIONS = ((5, 2), (21, 4))
MEDIUM_QUEUE_CAPACITY = 10
MEDIUM_STATION_WEIGHTS = (0.6, 0.4)
MEDIUM_WEIGHT_RATIO = 20.0


def medium_cost_model() -> CostModel:
    """Manhattan travel distances on the grid; place p-1 = y*grid_w + x."""
    to_rows = []
    for idx in range(MEDIUM_N_PLACES):
        x, y = idx % MEDIUM_GRID_W, idx // MEDIUM_GRID_W
        to_rows.append(tuple(float(abs(x - sx) + y + sy + 1)
                             for sx, sy in MEDIUM_STATIONS))
    to_station = tuple(to_rows)
    from_station = tuple(tuple(to_station[p][s] for p in range(MEDIUM_N_PLACES))
                         for s in range(len(MEDIUM_STATIONS)))
    return CostModel(to_station=to_station, from_station=from_station)


def random_initial_storage(n_pods: int, n_places: int,
                           rng: np.random.Generator) -> tuple[Optional[int], ...]:
    places = rng.choice(n_places, size=n_pods, replace=False)
    storage: list[Optional[int]] = [None] * n_places
    for h, p in enumerate(places, start=1):
        storage[int(p)] = h
    return tuple(storage)


def build_medium_system(seed: int, n: int = 20000,
                        regime: str = REGIME_RANDOM_GEOMETRIC) -> Instance:
    """The 504-place/441-pod system: asymmetric stations, random initial pod
    positions, geometric ratio-20 pod weights, station weights 0.6/0.4."""
    rng = rng_from_seed(seed)
    initial_storage = random_initial_storage(MEDIUM_N_PODS, MEDIUM_N_PLACES, rng)
    initial_queues = ((), ())
    capacities = (MEDIUM_QUEUE_CAPACITY, MEDIUM_QUEUE_CAPACITY)
    departures = generate_departures(
        MEDIUM_N_PODS, capacities, initial_storage, initial_queues,
        regime=regime, seed=seed + 1, n=n,
        pod_weights=geometric_weights(MEDIUM_N_PODS, MEDIUM_WEIGHT_RATIO),
        station_weights=MEDIUM_STATION_WEIGHTS,
    )
    inst = Instance(
        n_pods=MEDIUM_N_PODS,
        n_places=MEDIUM_N_PLACES,
        station_capacities=capacities,
        costs=medium_cost_model(),
        initial_storage=initial_storage,
        initial_queues=initial_queues,
        departures=departures,
    )
    validate_instance(inst)
    return inst
