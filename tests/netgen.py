"""Random embedded tensor networks for contraction tests.

Networks are built on Delaunay triangulations of random points, so every
bond is a non-crossing straight segment and the embedding is planar by
construction.  A spanning tree keeps them connected; extra triangulation
edges add loops.  Bond dimensions are capped so the total index space stays
small enough for the exhaustive oracle.
"""

import numpy as np
from scipy.spatial import Delaunay

from sweepdecode import DenseTensor
from sweepdecode.sweep import Bond, TensorNetwork2D, TNVertex


def _delaunay_edges(points):
    tri = Delaunay(points)
    edges = set()
    for simplex in tri.simplices:
        for i in range(3):
            a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def random_planar_network(
    rng,
    max_vertices=12,
    max_dim=4,
    product_cap=1 << 18,
    integer_elements=False,
    extra_edge_fraction=0.5,
):
    nv = int(rng.integers(3, max_vertices + 1))
    points = rng.uniform(0.0, 10.0, size=(nv, 2))
    edges = _delaunay_edges(points)

    # spanning tree first, then a fraction of the remaining edges
    adj = {i: [] for i in range(nv)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    chosen = []
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                chosen.append((min(a, b), max(a, b)))
                frontier.append(b)
    rest = [e for e in edges if e not in set(chosen)]
    n_extra = int(rng.integers(0, max(1, int(len(rest) * extra_edge_fraction)) + 1))
    pick = rng.permutation(len(rest))[:n_extra]
    chosen += [rest[i] for i in sorted(pick)]

    product = 1
    dims = []
    for _ in chosen:
        d = int(rng.integers(2, max_dim + 1))
        if product * d > product_cap:
            d = 1
        dims.append(d)
        product *= d

    axes_of = {i: [] for i in range(nv)}  # vertex -> [(bond index, dim)]
    for k, (a, b) in enumerate(chosen):
        axes_of[a].append(k)
        axes_of[b].append(k)

    vertices = []
    endpoint_axis = {}
    for i in range(nv):
        shape = tuple(dims[k] for k in axes_of[i])
        if integer_elements:
            arr = rng.integers(-3, 4, size=shape).astype(float)
        else:
            arr = rng.normal(size=shape)
        vertices.append(TNVertex(i, DenseTensor(arr), (float(points[i, 0]), float(points[i, 1]))))
        for axis, k in enumerate(axes_of[i]):
            endpoint_axis[(i, k)] = axis
    bonds = [
        Bond((a, endpoint_axis[(a, k)]), (b, endpoint_axis[(b, k)]), dims[k])
        for k, (a, b) in enumerate(chosen)
    ]
    return TensorNetwork2D(vertices, bonds)


def grid_network(rng, rows, cols, dim=2, positive=False):
    """Square-grid network with nearest-neighbor bonds."""
    vid = lambda r, c: r * cols + c
    bonds = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                bonds.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                bonds.append((vid(r, c), vid(r + 1, c)))
    axes_of = {vid(r, c): [] for r in range(rows) for c in range(cols)}
    for k, (a, b) in enumerate(bonds):
        axes_of[a].append(k)
        axes_of[b].append(k)
    vertices = []
    endpoint_axis = {}
    for r in range(rows):
        for c in range(cols):
            i = vid(r, c)
            shape = (dim,) * len(axes_of[i])
            arr = rng.uniform(0.1, 1.0, size=shape) if positive else rng.normal(size=shape)
            vertices.append(TNVertex(i, DenseTensor(arr), (float(c), float(r))))
            for axis, k in enumerate(axes_of[i]):
                endpoint_axis[(i, k)] = axis
    return TensorNetwork2D(
        vertices,
        [
            Bond((a, endpoint_axis[(a, k)]), (b, endpoint_axis[(b, k)]), dim)
            for k, (a, b) in enumerate(bonds)
        ],
    )


def scramble_positions(tn, rng):
    """Permute vertex positions to force crossings; combinatorics unchanged."""
    ids = sorted(tn.vertices)
    perm = rng.permutation(len(ids))
    old = [tn.vertices[i].position for i in ids]
    vertices = []
    for j, i in enumerate(ids):
        v = tn.vertices[i]
        vertices.append(TNVertex(v.id, v.tensor, old[perm[j]]))
    return TensorNetwork2D(vertices, tn.bonds)


def coset_geometry_network(code, rng):
    """A coset network's geometry for ``code`` with random positive tensors.

    One vertex per generator at its ``check_coords`` and one per qubit at
    its ``qubit_coords``, with a dimension-2 bond for every qubit in a
    generator's support: the vertices, positions and bonds a decoder's
    coset network has, without its probabilities.
    """
    m = code.num_checks
    vertices = []
    bonds = []
    qubit_degree = [0] * code.n
    for j, check in enumerate(code.checks):
        qubits = [q for q in range(code.n) if check.x[q] or check.z[q]]
        for axis, q in enumerate(qubits):
            bonds.append(Bond((j, axis), (m + q, qubit_degree[q]), 2))
            qubit_degree[q] += 1
        arr = rng.uniform(0.1, 1.0, size=(2,) * len(qubits))
        vertices.append(TNVertex(j, DenseTensor(arr), tuple(code.check_coords[j])))
    for q in range(code.n):
        arr = rng.uniform(0.1, 1.0, size=(2,) * qubit_degree[q])
        vertices.append(TNVertex(m + q, DenseTensor(arr), tuple(code.qubit_coords[q])))
    return TensorNetwork2D(vertices, bonds)


def depolarised_coset_network(code, p, rng):
    """A coset network of ``code`` as a decoder builds it, under
    depolarising noise of strength ``p``: a delta tensor per generator and,
    per qubit, the probability of the Pauli that a random residual times
    each combination of its generators' Paulis puts on it.

    It has the geometry of :func:`coset_geometry_network`, with the
    rank-deficient tensors of a real decode in place of random ones.
    """
    probs = np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])  # I, X, Z, Y
    m = code.num_checks
    vertices = []
    bonds = []
    qubit_checks = [[] for _ in range(code.n)]
    for j, check in enumerate(code.checks):
        qubits = [q for q in range(code.n) if check.x[q] or check.z[q]]
        for axis, q in enumerate(qubits):
            bonds.append(Bond((j, axis), (m + q, len(qubit_checks[q])), 2))
            qubit_checks[q].append(j)
        delta = np.zeros((2,) * len(qubits))
        delta[(0,) * len(qubits)] = delta[(1,) * len(qubits)] = 1.0
        vertices.append(TNVertex(j, DenseTensor(delta), tuple(code.check_coords[j])))
    residual = rng.integers(4, size=code.n)
    for q, checks in enumerate(qubit_checks):
        k = len(checks)
        bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        pauli = np.array([code.checks[j].x[q] + 2 * code.checks[j].z[q] for j in checks])
        gen = np.bitwise_xor.reduce(bits * pauli, axis=1)
        arr = probs[gen ^ residual[q]].reshape((2,) * k)
        vertices.append(TNVertex(m + q, DenseTensor(arr), tuple(code.qubit_coords[q])))
    return TensorNetwork2D(vertices, bonds)
