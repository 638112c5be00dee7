"""Seeded request streams for the serve benchmark.

Each workload turns a seed into a fixed request list: the same seed and
city always give the same list, byte for byte.  The program only ever
sees the generated requests.  Every stream draws from the ten category
head keywords, so :data:`READINESS_REQUEST`, which uses a non-head
keyword, never shares a cache key or a session with a timed request.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.soi import DEFAULT_EPS
from repro.datagen.vocab import CATEGORIES
from repro.serve.server import DescribeRequest, SOIRequest
from repro.serve.workload import describe_candidates

HEAD_KEYWORDS: tuple[str, ...] = tuple(CATEGORIES)
"""The ten category head keywords every workload draws from."""

SIGNATURES: tuple[tuple[str, ...], ...] = tuple(
    combo for size in (1, 2, 3) for combo in combinations(HEAD_KEYWORDS, size))
"""Keyword subsets of 1-3 head keywords: 10 + 45 + 120 = 175 signatures."""

READINESS_REQUEST = SOIRequest(keywords=("tennis",), k=1)
"""The set-up probe: a sport pool keyword that no workload draws."""

DESCRIBE_STREETS_PER_CATEGORY = 80
"""Top streets per category query; about 300 distinct streets in london,
far more than the worker's 32-entry describer LRU."""

POOL_SEED = 0
"""Seed of the request pools, the same for every run seed.  Which
requests a stream holds moved a run's throughput by up to 20% from seed
to seed on ``zipf_repeat`` (8% on ``soi_paging``) when each seed drew
its own; with one pool the seed only ranks and orders the requests."""

ZIPF_S = 1.1
ZIPF_SOI_POOL = 300
ZIPF_DESCRIBE_POOL = 150
ZIPF_SOI_SHARE = 0.75
ZIPF_SOI_KS = (10, 25, 50, 100)
DESCRIBE_KS = (5, 10, 20, 30)

PAGING_USERS = 4
PAGING_EPS = (0.0003, DEFAULT_EPS)
"""The users' eps values.  The snapshot warms ``DEFAULT_EPS`` only, so the
timed phase builds exactly one new eps (augmentation and store layout).
That build holds up the requests in flight with it, about four; with
more new eps those stalled requests would reach the ten that lie beyond
a pass's p99, and p99 would flip between a stalled and a normal
request."""
PAGING_PAGE = 10
PAGING_PAGES = 8
"""Pages per user; page ``p`` asks for ``k = 10 p``."""
PAGING_BURST = 2
"""Pages a user asks for back to back on its turn: the page it shows and
the next one, prefetched.  Both land in one micro-batch as a rule, which
is where k_max grouping applies."""

PASS_REQUESTS = {"zipf_repeat": 1500, "soi_paging": 1000}
"""Requests in the stream a pass serves: enough that at least ten lie
beyond a pass's nearest-rank p99."""

WORKLOADS = tuple(PASS_REQUESTS)


def describe_streets(engine) -> list[int]:
    """The describe candidate streets: top streets of every category."""
    return describe_candidates(engine, HEAD_KEYWORDS, DEFAULT_EPS,
                               per_category=DESCRIBE_STREETS_PER_CATEGORY)


def _zipf_counts(pool: int, size: int) -> list[int]:
    """Requests per popularity rank: one for each rank, the rest shared
    out by Zipf(:data:`ZIPF_S`) on rank (largest remainder)."""
    if size <= pool:
        return [1] * size + [0] * (pool - size)
    ranks = np.arange(1, pool + 1, dtype=np.float64)
    shares = ranks ** -ZIPF_S
    extra = (size - pool) * shares / shares.sum()
    counts = np.floor(extra).astype(np.int64)
    short = size - pool - int(counts.sum())
    counts[np.argsort(counts - extra, kind="stable")[:short]] += 1
    return (counts + 1).tolist()


def zipf_repeat(seed: int, streets: list[int], length: int) -> list:
    """3/4 k-SOI and 1/4 describe, Zipf(1.1) over a fixed hot pool.

    The k-SOI pool holds 300 distinct ``(signature, k)`` requests and the
    describe pool 150 distinct ``(street, k)`` requests.  The pools are
    drawn once, with :data:`POOL_SEED`, so every seed serves the same
    distinct requests.  The seed ranks each pool by popularity and
    orders the stream.  Every pool request is asked for once, and the
    rest of the stream follows Zipf(1.1) on rank.  Their cache keys
    (k-SOI keys omit ``k``) outnumber the 256-entry result cache.
    """
    pools = np.random.default_rng(POOL_SEED)
    soi_pairs = [(sig, k) for sig in SIGNATURES for k in ZIPF_SOI_KS]
    soi_pool = [SOIRequest(keywords=soi_pairs[i][0], k=soi_pairs[i][1])
                for i in pools.permutation(len(soi_pairs))[:ZIPF_SOI_POOL]]
    describe_pairs = [(street, k) for street in streets for k in DESCRIBE_KS]
    describe_pool = [
        DescribeRequest(street_id=describe_pairs[i][0],
                        k=describe_pairs[i][1])
        for i in pools.permutation(len(describe_pairs))[:ZIPF_DESCRIBE_POOL]]
    rng = np.random.default_rng(seed)
    soi_requests = round(ZIPF_SOI_SHARE * length)
    stream: list = []
    for pool, size in ((soi_pool, soi_requests),
                       (describe_pool, length - soi_requests)):
        ranked = [pool[i] for i in rng.permutation(len(pool)).tolist()]
        for request, count in zip(ranked, _zipf_counts(len(pool), size)):
            stream.extend([request] * count)
    return [stream[i] for i in rng.permutation(len(stream)).tolist()]


def soi_paging(seed: int, streets: list[int], length: int) -> list:
    """Four users take turns, each paging one fresh ``(signature, eps)``.

    Every user takes a ``(signature, eps)`` pair no earlier user had and
    asks for pages ``k = 10, 20, ..., 80``, :data:`PAGING_BURST` pages per
    turn; a finished user is replaced by a new one.  The users join one
    turn apart, so each turn holds the first pages of exactly one user:
    the cold requests are spread evenly.  A k-SOI cache entry answers
    only a smaller ``k`` or an exhausted result, so only exhausted
    results can hit the cache.  The pairs the stream needs are drawn once,
    with :data:`POOL_SEED`, so every seed pages the same pairs (apart
    from the last few users, whom the end of the stream cuts short); the
    seed orders the users.  The 175 signatures times the
    :data:`PAGING_EPS` values give 350 pairs: users for 2800 requests.  A
    longer stream ends when they run out.
    """
    del streets
    pairs = [(sig, eps) for sig in SIGNATURES for eps in PAGING_EPS]
    needed = length // PAGING_PAGES + PAGING_USERS
    pool = np.random.default_rng(POOL_SEED).permutation(len(pairs))[:needed]
    order = iter(np.random.default_rng(seed).permutation(pool).tolist())

    def new_user() -> list:
        sig, eps = pairs[next(order)]
        return [SOIRequest(keywords=sig, k=PAGING_PAGE * page, eps=eps)
                for page in range(PAGING_PAGES, 0, -1)]

    users: list[list] = []
    stream: list = []
    try:
        while len(stream) < length:
            if len(users) < PAGING_USERS:
                users.append(new_user())
            for slot, pages in enumerate(users):
                stream.extend(pages.pop() for _ in range(PAGING_BURST))
                if not pages:
                    users[slot] = new_user()
    except StopIteration:
        pass
    return stream[:length]


def make_stream(workload: str, seed: int, streets: list[int],
                length: int) -> list:
    """The request stream of ``workload`` for ``seed``."""
    generators = {"zipf_repeat": zipf_repeat, "soi_paging": soi_paging}
    return generators[workload](seed, streets, length)


def stream_bytes(stream: list) -> bytes:
    """A canonical byte form of a stream, for determinism checks."""
    return repr(stream).encode("utf-8")


def describe_traffic(stream: list) -> dict:
    """Traffic descriptors of the requests a run served."""
    soi = [r for r in stream if isinstance(r, SOIRequest)]
    describe = [r for r in stream if isinstance(r, DescribeRequest)]
    return {
        "requests_soi": len(soi),
        "requests_describe": len(describe),
        "distinct_requests": len(set(stream)),
        "distinct_soi_signatures": len(
            {frozenset(r.keywords) for r in soi}),
        "distinct_describe_streets": len({r.street_id for r in describe}),
        "distinct_eps": len({r.eps for r in stream}),
    }
