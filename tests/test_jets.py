import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varint import DiscretePath, JetPoint, PairState, pack, uniform_grid, unpack


class TestUniformGrid:
    def test_thousand_steps(self):
        g = uniform_grid(0.0, 10.0, 1000)
        assert g.h == 0.01
        assert g.times.size == 1001

    def test_single_step(self):
        assert uniform_grid(0.0, 1.0, 1).h == 1.0

    def test_three_steps(self):
        g = uniform_grid(0.0, 0.3, 3)
        assert g.h == pytest.approx(0.1)
        assert np.allclose(g.times, [0.0, 0.1, 0.2, 0.3])

    @pytest.mark.parametrize("t0,T,N", [(0.0, 0.0, 3), (1.0, 0.5, 3), (0.0, 1.0, 0)])
    def test_rejects_bad_span(self, t0, T, N):
        with pytest.raises(ValueError):
            uniform_grid(t0, T, N)

    def test_nodes_bit_identical(self):
        g = uniform_grid(0.3, 7.7, 97)
        for i in (0, 1, 42, 97):
            assert g.times[i] == g.t0 + i * g.h


class TestDiscretePath:
    @pytest.mark.parametrize("shape", [(4, 2), (5, 3), (5, 0), (5,), (5, 2, 1)])
    def test_rejects_nodes_of_another_shape(self, shape):
        with pytest.raises(ValueError):
            DiscretePath(uniform_grid(0.0, 1.0, 4), np.zeros(shape))

    def test_views_are_read_only_blocks(self):
        nodes = np.arange(10.0).reshape(5, 2)
        path = DiscretePath(uniform_grid(0.0, 1.0, 4), nodes)
        nodes[0, 0] = -1.0                      # the path kept its own copy
        assert path.n == 1
        assert np.array_equal(path.positions()[:, 0], [0.0, 2.0, 4.0, 6.0, 8.0])
        assert np.array_equal(path.velocities()[:, 0], [1.0, 3.0, 5.0, 7.0, 9.0])
        for view in (path.nodes, path.positions(), path.velocities()):
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_states_are_the_rows(self):
        path = DiscretePath(uniform_grid(0.0, 1.0, 2), np.arange(12.0).reshape(3, 4))
        assert path.states is path.states
        assert [s.as_array().tolist() for s in path.states] == path.nodes.tolist()
        assert all(s.order == 1 and s.dim == 2 for s in path.states)


class TestPackUnpack:
    def test_scalar_pair(self):
        s = PairState(JetPoint([1.0], [[2.0]]), JetPoint([3.0], [[4.0]]), 0.5)
        assert np.array_equal(pack(s), [1.0, 2.0, 3.0, 4.0])

    def test_zero_state(self):
        z = np.zeros(2)
        s = PairState(JetPoint(z, [z]), JetPoint(z, [z]), 1.0)
        assert np.array_equal(pack(s), np.zeros(8))

    def test_unpack_examples(self):
        s = unpack([1.0, 2.0, 3.0, 4.0], 2, 1)
        assert s.left.q[0] == 1.0 and s.left.deriv(1)[0] == 2.0
        assert s.right.q[0] == 3.0 and s.right.deriv(1)[0] == 4.0

    def test_unpack_length_mismatch(self):
        with pytest.raises(ValueError):
            unpack(np.zeros(7), 2, 2)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, k, n, seed):
        r = np.random.default_rng(seed)
        v = r.normal(size=2 * k * n)
        s = unpack(v, k, n, h=0.25)
        assert np.array_equal(pack(s), v)
        assert s.h == 0.25
        assert s.k == k and s.n == n


class TestStates:
    def test_jet_immutable(self):
        j = JetPoint([1.0, 2.0], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            j.q[0] = 3.0
        source = np.array([1.0, 2.0])
        j2 = JetPoint(source)
        source[0] = 99.0
        assert j2.q[0] == 1.0

    def test_jet_orders(self):
        j = JetPoint([0.0], [[1.0], [2.0], [3.0]])
        assert j.order == 3
        assert j.deriv(0)[0] == 0.0 and j.deriv(3)[0] == 3.0
        assert np.array_equal(j.as_array(), [0.0, 1.0, 2.0, 3.0])
        back = JetPoint.from_array(j.as_array(), 3, 1)
        assert np.array_equal(back.as_array(), j.as_array())

    def test_jet_dimension_mismatch(self):
        with pytest.raises(ValueError):
            JetPoint([0.0, 1.0], [[1.0]])

    def test_pair_validation(self):
        a = JetPoint([0.0], [[1.0]])
        b = JetPoint([0.0], [[1.0], [2.0]])
        with pytest.raises(ValueError):
            PairState(a, b, 0.1)
        with pytest.raises(ValueError):
            PairState(a, a, 0.0)
        with pytest.raises(ValueError):
            PairState(a, a, -1.0)


class TestPackOnce:
    def test_read_only_concatenation(self):
        s = PairState(JetPoint([1.0, 2.0], [[3.0, 4.0]]), JetPoint([5.0, 6.0], [[7.0, 8.0]]), 0.5)
        x = pack(s)
        assert np.array_equal(x, np.concatenate([s.left.q, s.left.deriv(1),
                                                 s.right.q, s.right.deriv(1)]))
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert pack(s) is x


class TestPackedPairState:
    def test_unpack_copies_a_writable_vector(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        s = unpack(v, 2, 1, 0.5)
        v[:] = 99.0
        assert np.array_equal(pack(s), [1.0, 2.0, 3.0, 4.0])
        assert s.left.q[0] == 1.0 and s.right.deriv(1)[0] == 4.0

    def test_unpack_keeps_a_read_only_row(self):
        X = np.arange(8.0).reshape(2, 4)
        X.setflags(write=False)
        row = X[1]
        assert pack(unpack(row, 2, 1, 0.5)) is row

    @pytest.mark.parametrize("make", [
        lambda: unpack([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 2, 2, 0.5),
        lambda: PairState(JetPoint([1.0, 2.0], [[3.0, 4.0]]),
                          JetPoint([5.0, 6.0], [[7.0, 8.0]]), 0.5)])
    def test_pack_is_one_read_only_array(self, make):
        s = make()
        x = pack(s)
        assert not x.flags.writeable
        assert pack(s) is x
        assert np.array_equal(x, np.arange(1.0, 9.0))

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_lazy_jets_are_the_packed_blocks(self, k, n, seed):
        v = np.random.default_rng(seed).normal(size=2 * k * n)
        s = unpack(v, k, n, 0.25)
        blocks = v.reshape(2 * k, n)
        for j in range(k):
            assert np.array_equal(s.left.deriv(j), blocks[j])
            assert np.array_equal(s.right.deriv(j), blocks[k + j])
        assert s.left.order == s.right.order == k - 1
        assert s.left is s.left and s.right is s.right

    def test_jet_constructor_validates(self):
        a = JetPoint([0.0], [[1.0]])
        with pytest.raises(ValueError, match="equal order"):
            PairState(a, JetPoint([0.0], [[1.0], [2.0]]), 0.1)
        with pytest.raises(ValueError, match="equal dimension"):
            PairState(a, JetPoint([0.0, 1.0], [[1.0, 2.0]]), 0.1)
        for h in (0.0, -1.0):
            with pytest.raises(ValueError, match="h must be positive"):
                PairState(a, a, h)

    def test_unpack_validates(self):
        with pytest.raises(ValueError, match="expected length 8"):
            unpack(np.zeros(6), 2, 2)
        for h in (0.0, -0.5):
            with pytest.raises(ValueError, match="h must be positive"):
                unpack(np.zeros(4), 2, 1, h)
