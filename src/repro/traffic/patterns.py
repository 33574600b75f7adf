"""Synthetic traffic patterns (Section 4's synthetic workloads).

A pattern answers one question: given a source node, where does the next
packet go?  Stateless patterns (transpose, bit-complement, ...) are pure
permutations of the node id; stochastic patterns (uniform random, nearest
neighbour) draw from an RNG supplied per call so that simulations stay
reproducible under a seeded ``random.Random``.
"""

from __future__ import annotations

import random
from typing import List

from repro.noc.topology import Mesh, Topology


class TrafficPattern:
    """Maps a source node to a destination node."""

    name = "abstract"

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes

    def destination(self, src: int, rng: random.Random) -> int:
        raise NotImplementedError

    def _check_src(self, src: int) -> None:
        if not 0 <= src < self.num_nodes:
            raise ValueError(
                f"source {src} out of range [0, {self.num_nodes})"
            )


class UniformRandom(TrafficPattern):
    """Each packet targets a uniformly random node other than the source."""

    name = "uniform_random"

    def destination(self, src: int, rng: random.Random) -> int:
        self._check_src(src)
        dst = rng.randrange(self.num_nodes - 1)
        return dst if dst < src else dst + 1


class NearestNeighbor(TrafficPattern):
    """Each packet targets a random mesh neighbour of the source.

    Needs mesh coordinates, so it is constructed from the topology rather
    than a bare node count.  This is the pattern for which HeteroNoC is
    *worse* than the baseline (the Figure 9 anomaly).
    """

    name = "nearest_neighbor"

    def __init__(self, topology: Topology) -> None:
        if not isinstance(topology, Mesh):
            raise TypeError("NearestNeighbor requires a mesh-like topology")
        super().__init__(topology.num_nodes)
        self._neighbors: List[List[int]] = []
        for node in range(topology.num_nodes):
            row, col = topology.coords(topology.router_of_node(node))
            adjacent = []
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                r, c = row + dr, col + dc
                if 0 <= r < topology.height and 0 <= c < topology.width:
                    adjacent.append(topology.router_at(r, c))
            self._neighbors.append(adjacent)

    def destination(self, src: int, rng: random.Random) -> int:
        self._check_src(src)
        return rng.choice(self._neighbors[src])


class Transpose(TrafficPattern):
    """Node (r, c) of a square mesh sends to node (c, r)."""

    name = "transpose"

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        side = int(round(num_nodes ** 0.5))
        if side * side != num_nodes:
            raise ValueError(
                f"transpose needs a square node count, got {num_nodes}"
            )
        self.side = side

    def destination(self, src: int, rng: random.Random) -> int:
        self._check_src(src)
        row, col = divmod(src, self.side)
        dst = col * self.side + row
        if dst == src:
            # Diagonal nodes map to themselves; send somewhere useful
            # instead of self-looping.
            return (src + self.side // 2 * (self.side + 1)) % self.num_nodes
        return dst


class BitComplement(TrafficPattern):
    """Destination is the bitwise complement of the source id."""

    name = "bit_complement"

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        if num_nodes & (num_nodes - 1):
            raise ValueError(
                f"bit-complement needs a power-of-two node count, got {num_nodes}"
            )

    def destination(self, src: int, rng: random.Random) -> int:
        self._check_src(src)
        return src ^ (self.num_nodes - 1)


class BitReverse(TrafficPattern):
    """Destination is the bit-reversed source id."""

    name = "bit_reverse"

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        if num_nodes & (num_nodes - 1):
            raise ValueError(
                f"bit-reverse needs a power-of-two node count, got {num_nodes}"
            )
        self.bits = num_nodes.bit_length() - 1

    def destination(self, src: int, rng: random.Random) -> int:
        self._check_src(src)
        dst = 0
        for bit in range(self.bits):
            if src & (1 << bit):
                dst |= 1 << (self.bits - 1 - bit)
        if dst == src:
            return (src + self.num_nodes // 2) % self.num_nodes
        return dst


class Tornado(TrafficPattern):
    """Node (r, c) sends halfway around its row: to (r, c + k/2 - 1)."""

    name = "tornado"

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        side = int(round(num_nodes ** 0.5))
        if side * side != num_nodes:
            raise ValueError(
                f"tornado needs a square node count, got {num_nodes}"
            )
        self.side = side

    def destination(self, src: int, rng: random.Random) -> int:
        self._check_src(src)
        row, col = divmod(src, self.side)
        shift = max(1, self.side // 2 - 1)
        return row * self.side + (col + shift) % self.side


def span_twin(pattern: TrafficPattern):
    """``pattern`` as plain data the compiled span driver
    (:meth:`repro.noc.ckernel.CKernel.run`) replays, or ``None``.

    ``(kind, rows)``: ``"uniform"`` draws ``randrange(n - 1)`` and skips
    the source; ``"choice"`` draws ``rng.choice(rows[src])``; ``"fixed"``
    sends to ``rows[src][0]`` without touching the RNG.  Only the exact
    built-in classes have a twin -- a subclass may override
    ``destination`` -- so anything else stays on the per-cycle loop.
    """
    kind = type(pattern)
    if kind is UniformRandom:
        return ("uniform", None)
    if kind is NearestNeighbor:
        return ("choice", pattern._neighbors)
    if kind in (Transpose, BitComplement, BitReverse, Tornado):
        return ("fixed", [
            [pattern.destination(src, None)]
            for src in range(pattern.num_nodes)
        ])
    return None


def pattern_by_name(
    name: str, topology: Topology
) -> TrafficPattern:
    """Construct a pattern from its canonical name.

    ``"self_similar"`` is deliberately absent: self-similarity is a
    property of the injection *process*, handled by
    :class:`repro.traffic.selfsimilar.SelfSimilarInjector` layered over any
    spatial pattern.
    """
    n = topology.num_nodes
    table = {
        "uniform_random": lambda: UniformRandom(n),
        "nearest_neighbor": lambda: NearestNeighbor(topology),
        "transpose": lambda: Transpose(n),
        "bit_complement": lambda: BitComplement(n),
        "bit_reverse": lambda: BitReverse(n),
        "tornado": lambda: Tornado(n),
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; choose from {sorted(table)}"
        ) from None
