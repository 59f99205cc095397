"""Topology geometry at 64k nodes: pure arithmetic, no simulation.

The 64k study (docs/PERFORMANCE.md) leans on topologies staying
closed-form at scale: a quaternary fat tree over 65537 leaves (64k
compute + management) and a near-cubic torus box for 65536 slots must
come out of :mod:`repro.network.topology` as arithmetic, never as a
materialized graph.  These tests pin the geometry — level counts, box
dimensions, representative hop distances — so a routing change that
silently alters 64k latencies shows up as a failed constant, not as a
drifted benchmark.
"""

import pytest

from repro.network.topology import Torus3D, _near_cubic_dims, build_topology

# 64k compute nodes + 1 management node, as the largest scaling points run.
N64K = 65536


class TestFatTree64k:
    @pytest.fixture(scope="class")
    def tree(self):
        return build_topology("fattree", N64K + 1, radix=4)

    def test_levels_and_diameter(self, tree):
        # 65536 = 4^8 exactly, so one extra leaf forces a 9th level.
        assert tree.levels == 9
        assert tree.max_hops() == 18

    def test_pow4_boundary_hops(self, tree):
        # Hops double-count the climb to the lowest common ancestor:
        # 2 * level.  Crossing each 4^k leaf-group boundary adds one
        # level to the LCA.
        assert tree.hops(0, 0) == 0
        assert tree.hops(0, 1) == 2  # same leaf switch
        assert tree.hops(0, 3) == 2
        assert tree.hops(0, 4) == 4  # first switch boundary
        assert tree.hops(0, 15) == 4
        assert tree.hops(0, 16) == 6
        assert tree.hops(0, 4**7 - 1) == 14  # inside the 16384 group
        assert tree.hops(0, 4**7) == 16  # crosses it
        assert tree.hops(0, N64K) == 18  # management node: full climb

    def test_hops_symmetric_at_scale(self, tree):
        for a, b in [(0, N64K), (5, 4**7), (123, 65521)]:
            assert tree.hops(a, b) == tree.hops(b, a)

    def test_multicast_depth(self, tree):
        # A strobe to all 64k compute nodes spans the full 8-level
        # subtree (up and down); tiny multicasts stay at one switch.
        assert tree.multicast_hops(N64K) == 16
        assert tree.multicast_hops(2) == 2

    def test_out_of_range_rejected(self, tree):
        with pytest.raises(IndexError):
            tree.hops(0, N64K + 1)


class TestTorus64k:
    @pytest.fixture(scope="class")
    def torus(self):
        return build_topology("torus3d", N64K)

    def test_near_cubic_box(self, torus):
        # Smallest near-cubic box over 65536 slots: 41*40*40 = 65600
        # (a perfect cube would need 40.3^3).  Axes sorted descending.
        assert _near_cubic_dims(N64K) == (41, 40, 40)
        assert torus.dims == (41, 40, 40)
        dx, dy, dz = torus.dims
        assert dx * dy * dz >= N64K

    def test_row_major_coords(self, torus):
        assert torus.coords(0) == (0, 0, 0)
        # Row-major: x advances every dy*dz = 1600 slots.
        assert torus.coords(1600) == (1, 0, 0)
        assert torus.coords(N64K - 1) == (40, 38, 15)

    def test_wraparound_hops(self, torus):
        dx, dy, dz = torus.dims
        assert torus.hops(0, 1) == 1  # +z neighbour
        assert torus.hops(0, dy * dz) == 1  # +x neighbour
        # Wraparound: the far end of the x axis is one hop backwards.
        assert torus.hops(0, (dx - 1) * dy * dz) == 1
        assert torus.hops(0, N64K - 1) == 18

    def test_diameter(self, torus):
        # Sum of per-axis wraparound radii: 20 + 20 + 20.
        assert torus.max_hops() == 60

    def test_multicast_radius(self, torus):
        # A broadcast covering the whole machine is bounded by the
        # radius of the full box.
        assert torus.multicast_hops(N64K) == 60
        assert torus.multicast_hops(2) == 2

    def test_soa_coords_are_compact(self, torus):
        # The coordinate table must stay three flat int32 arrays, not
        # 64k GC-traced tuples — that representation is half of what
        # keeps a 64k-node cluster's footprint flat.
        import numpy as np

        for arr in (torus._cx, torus._cy, torus._cz):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.int32
            assert len(arr) == N64K


def test_dims_cover_arbitrary_counts():
    # The box never under-provisions, including non-powers and the
    # management-node off-by-one shapes the farm actually builds.
    for n in (1, 2, 63, 1025, 16384, 16385, N64K, N64K + 1):
        dx, dy, dz = _near_cubic_dims(n)
        assert dx * dy * dz >= n
        assert dx >= dy >= dz
        t = Torus3D(n)
        assert t.hops(0, n - 1) <= t.max_hops()
