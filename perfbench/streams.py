"""The three workloads: pages from :mod:`repro.workloads`, request streams
drawn from the benchmark seed.

Every workload is a closed loop of clients -- ``nproc`` of them, or one
for forum-recrawl -- each holding one keep-alive connection and sending
its next request only after the last reply (crawler workers that wait
for each page's extraction).  Streams
are pure functions of ``(seed, client, phase)``, so a seed fixes every
page and every request of a phase -- only how many of them fit into the
measured seconds depends on the server.

serve-small
    Catalog pages with 6 items (~0.9 KB) drawn Zipf(1.0) from a pool of
    4096 -- eight times the server's default 512-entry result cache, so
    the head of the distribution hits (about two requests in three) and
    the tail misses.  Compute is under 1 ms of a request: the HTTP
    front, the micro-batcher's 10 ms flush deadline, the cache and the
    shard transport dominate.
catalog-large
    Catalog pages with 640 items (~56 KB), every request a page the
    server has never seen (a seeded base page with a unique ``<title>``,
    which the wrapper does not extract), so the cache never answers.
    HTML scan, snapshot build, output assembly and JSON encoding
    dominate.
forum-recrawl
    16 forum documents (8 threads x 80-deep reply chains, ~50 KB), each
    seeded once with its ``doc_id`` during set-up and owned by one
    client so its versions arrive in order.  Each request is 40% "edit
    the deepest comment of every thread", 20% "edit ~10% of comments",
    15% "edit ~half the comments" (all three sent with ``doc_id``: the
    warm delta fixpoint) and 25% first crawls of a fresh page (no
    ``doc_id``: the cold kernel fixpoint over deep chains).
"""

from __future__ import annotations

import bisect
import json
import random
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.workloads import (
    CATALOG_WRAPPER,
    FORUM_WRAPPER,
    catalog_page,
    forum_page,
)

#: The server's default result-cache capacity (``--cache-size``), which
#: the serve-small pool is sized against.
SERVER_CACHE_ENTRIES = 512

class Request:
    """One ``POST /extract`` request: the page, its optional ``doc_id``,
    and the encoded body (built before the request is timed).  An edit
    of a ``doc_id`` document also keeps the version it replaces, which
    the traced run's warm-path ledger diffs against."""

    __slots__ = ("html", "body", "kind", "prior")

    def __init__(
        self,
        html: str,
        doc_id: Optional[str] = None,
        kind: str = "page",
        prior: Optional[str] = None,
    ):
        self.html = html
        self.kind = kind
        self.prior = prior
        payload = {"html": html}
        if doc_id is not None:
            payload["doc_id"] = doc_id
        self.body = json.dumps(payload).encode("utf-8")


def _rng(seed: int, *parts) -> random.Random:
    """An independent stream per ``(seed, parts...)``; stable across runs
    (string seeding hashes with SHA-512, not the salted ``hash``)."""
    return random.Random("/".join(str(p) for p in (seed,) + parts))


class Workload:
    """A named traffic mix against one registered wrapper."""

    name = ""
    wrapper = ""
    source = ""
    patterns: Tuple[str, ...] = ()
    #: Requests measured in each phase of a traced run, per client.
    traced_requests = 0
    #: Connections this workload opens; ``None`` means ``nproc``.
    max_clients: Optional[int] = None
    #: Measured responses after which the server's peak RSS is read:
    #: a fixed amount of work, so the figure does not grow with
    #: throughput as the unweighted result cache fills.
    rss_after = 0

    def __init__(self, seed: int, clients: int):
        self.seed = seed
        self.clients = clients if self.max_clients is None else min(
            clients, self.max_clients
        )

    @property
    def path(self) -> str:
        return f"/extract/{self.wrapper}"

    def registration(self) -> dict:
        return {
            "name": self.wrapper,
            "source": self.source,
            "kind": "elog",
            "patterns": list(self.patterns),
        }

    def reset(self) -> None:
        """Forget per-server state (a fresh server starts from scratch)."""

    def warmup(self) -> List[Request]:
        """Requests sent during set-up, in order, on one connection."""
        raise NotImplementedError

    def stream(self, client: int, phase: str) -> Iterator[Request]:
        raise NotImplementedError

    def sizes(self) -> Dict[str, object]:
        raise NotImplementedError


class ServeSmall(Workload):
    name = "serve-small"
    wrapper = "catalog"
    source = CATALOG_WRAPPER
    patterns = ("record", "name", "price")
    items = 6
    pool = 4096
    zipf_s = 1.0
    warmup_requests = 256
    traced_requests = 300
    rss_after = 1000

    def __init__(self, seed: int, clients: int):
        super().__init__(seed, clients)
        base = _rng(seed, self.name, "pool").randrange(1 << 30)
        self.pages = [
            catalog_page(seed=base + i, items=self.items) for i in range(self.pool)
        ]
        self.requests = [Request(page) for page in self.pages]
        # Rank -> page: a seeded permutation, so each seed has its own
        # hot set.
        self.rank_to_page = list(range(self.pool))
        _rng(seed, self.name, "ranks").shuffle(self.rank_to_page)
        weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(self.pool)]
        total = 0.0
        self.cumulative = []
        for weight in weights:
            total += weight
            self.cumulative.append(total)

    def _draws(self, rng: random.Random) -> Iterator[Request]:
        top = self.cumulative[-1]
        while True:
            rank = bisect.bisect_left(self.cumulative, rng.random() * top)
            yield self.requests[self.rank_to_page[min(rank, self.pool - 1)]]

    def warmup(self) -> List[Request]:
        draws = self._draws(_rng(self.seed, self.name, "warmup"))
        return [next(draws) for _ in range(self.warmup_requests)]

    def stream(self, client: int, phase: str) -> Iterator[Request]:
        return self._draws(_rng(self.seed, self.name, phase, client))

    def sizes(self) -> Dict[str, object]:
        sizes = [len(page) for page in self.pages]
        return {
            "items": self.items,
            "page_bytes_mean": round(sum(sizes) / len(sizes)),
            "pool_pages": self.pool,
            "server_cache_entries": SERVER_CACHE_ENTRIES,
            "pool_over_cache": self.pool / SERVER_CACHE_ENTRIES,
            "zipf_s": self.zipf_s,
            "warmup_requests": self.warmup_requests,
        }


class CatalogLarge(Workload):
    name = "catalog-large"
    wrapper = "catalog"
    source = CATALOG_WRAPPER
    patterns = ("record", "name", "price")
    items = 640
    base_pages = 64
    warmup_requests = 8
    traced_requests = 24
    rss_after = 120

    def __init__(self, seed: int, clients: int):
        super().__init__(seed, clients)
        base = _rng(seed, self.name, "pool").randrange(1 << 30)
        self.pages = [
            catalog_page(seed=base + i, items=self.items)
            for i in range(self.base_pages)
        ]

    def _distinct(self, rng: random.Random, tag: str) -> Iterator[Request]:
        n = 0
        while True:
            page = self.pages[rng.randrange(self.base_pages)]
            # A unique title makes the page new to the server's
            # content-hash cache without changing what is extracted.
            yield Request(
                page.replace("<title>Shop</title>", f"<title>Shop {tag}-{n}</title>", 1)
            )
            n += 1

    def warmup(self) -> List[Request]:
        draws = self._distinct(_rng(self.seed, self.name, "warmup"), "w")
        return [next(draws) for _ in range(self.warmup_requests)]

    def stream(self, client: int, phase: str) -> Iterator[Request]:
        return self._distinct(
            _rng(self.seed, self.name, phase, client), f"{phase}.{client}"
        )

    def sizes(self) -> Dict[str, object]:
        sizes = [len(page) for page in self.pages]
        return {
            "items": self.items,
            "page_bytes_mean": round(sum(sizes) / len(sizes)),
            "base_pages": self.base_pages,
            "distinct_requests": True,
            "server_cache_entries": SERVER_CACHE_ENTRIES,
            "warmup_requests": self.warmup_requests,
        }


#: ``Comment <thread>.<depth> [(v<n>) ]by`` -- the editable part of every
#: forum comment body (see :func:`repro.workloads.forum_page`).
_COMMENT = re.compile(r"Comment (\d+)\.(\d+) (?:\(v\d+\) )?by")


class ForumRecrawl(Workload):
    name = "forum-recrawl"
    wrapper = "forum"
    source = FORUM_WRAPPER
    patterns = ("thread", "comment", "body")
    documents = 16
    threads = 8
    depth = 80
    fresh_pages = 16
    #: (share, kind) -- the edit mix of one measured request.  Sorted by
    #: latency the kinds run deepest < fresh < 10% < half, so the class
    #: boundaries sit at 40/65/85% and not on the reported p50/p90: a
    #: percentile on a boundary between two latency classes jumps between
    #: them from run to run.
    mix = (
        (0.40, "edit-deepest"),
        (0.20, "edit-10pct"),
        (0.15, "edit-half"),
        (0.25, "fresh"),
    )
    fresh_warmup = 2
    #: One crawler.  With two, every request also waits for a random part
    #: of the other's 40-250 ms request on the single shard: in alternating
    #: runs on a 2-core box the median latency ranged over 38% of its
    #: smallest value with two clients, against 24% with one.
    max_clients = 1
    traced_requests = 32
    rss_after = 60

    def __init__(self, seed: int, clients: int):
        super().__init__(seed, clients)
        base = _rng(seed, self.name, "pool").randrange(1 << 30)
        self.originals = [
            forum_page(seed=base + i, threads=self.threads, depth=self.depth)
            for i in range(self.documents)
        ]
        self.fresh = [
            forum_page(
                seed=base + self.documents + i,
                threads=self.threads,
                depth=self.depth,
            )
            for i in range(self.fresh_pages)
        ]
        self.comments = [
            (t, d) for t in range(self.threads) for d in range(self.depth)
        ]
        self.reset()

    def reset(self) -> None:
        self.current = list(self.originals)
        self.versions = [0] * self.documents

    def doc_id(self, index: int) -> str:
        return f"forum-{self.seed}-{index}"

    def owned(self, client: int) -> List[int]:
        """The documents one client edits (disjoint across clients)."""
        return [i for i in range(self.documents) if i % self.clients == client]

    def _edit(
        self, index: int, targets: Sequence[Tuple[int, int]], kind: str
    ) -> Request:
        self.versions[index] += 1
        version = self.versions[index]
        chosen = set(targets)

        def tag(match: "re.Match") -> str:
            key = (int(match.group(1)), int(match.group(2)))
            if key in chosen:
                return f"Comment {key[0]}.{key[1]} (v{version}) by"
            return match.group(0)

        prior = self.current[index]
        html = _COMMENT.sub(tag, prior)
        self.current[index] = html
        return Request(html, doc_id=self.doc_id(index), kind=kind, prior=prior)

    def _fresh(self, rng: random.Random, tag: str) -> Request:
        page = self.fresh[rng.randrange(self.fresh_pages)]
        html = page.replace('<div id="forum">', f'<div id="forum" data-crawl="{tag}">', 1)
        return Request(html, kind="fresh")

    def warmup(self) -> List[Request]:
        # Seeding: each document's first version, with its doc_id, so the
        # shard holds the state every later edit is diffed against.
        seeded = [
            Request(self.current[i], doc_id=self.doc_id(i), kind="seed")
            for i in range(self.documents)
        ]
        rng = _rng(self.seed, self.name, "warmup")
        return seeded + [self._fresh(rng, f"w{i}") for i in range(self.fresh_warmup)]

    def _kinds(self, rng: random.Random) -> Iterator[str]:
        """Request kinds in shuffled blocks of 20 that hold the mix
        exactly, so a run's share of expensive half edits does not vary
        with the seed."""
        block = [kind for share, kind in self.mix for _ in range(round(share * 20))]
        while True:
            rng.shuffle(block)
            yield from block

    def stream(self, client: int, phase: str) -> Iterator[Request]:
        rng = _rng(self.seed, self.name, phase, client)
        owned = self.owned(client)
        for n, kind in enumerate(self._kinds(rng)):
            if kind == "fresh":
                yield self._fresh(rng, f"{phase}.{client}.{n}")
                continue
            index = rng.choice(owned)
            if kind == "edit-deepest":
                targets = [(t, self.depth - 1) for t in range(self.threads)]
            else:
                share = 0.10 if kind == "edit-10pct" else 0.50
                targets = rng.sample(self.comments, round(share * len(self.comments)))
            yield self._edit(index, targets, kind)

    def sizes(self) -> Dict[str, object]:
        sizes = [len(page) for page in self.originals]
        return {
            "threads": self.threads,
            "depth": self.depth,
            "page_bytes_mean": round(sum(sizes) / len(sizes)),
            "documents": self.documents,
            "fresh_pool": self.fresh_pages,
            "mix": {name: share for share, name in self.mix},
            "server_cache_entries": SERVER_CACHE_ENTRIES,
        }


WORKLOADS = {cls.name: cls for cls in (ServeSmall, CatalogLarge, ForumRecrawl)}
