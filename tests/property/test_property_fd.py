"""Property-based tests for the FD engine (closure and implication)."""

from hypothesis import given, settings, strategies as st

from repro.core.fd import FDSet, FunctionalDependency

TOKENS = ["a", "b", "c", "d", "e", "f"]

token_sets = st.sets(st.sampled_from(TOKENS), min_size=0, max_size=3)
nonempty_token_sets = st.sets(st.sampled_from(TOKENS), min_size=1, max_size=3)


@st.composite
def fd_sets(draw):
    count = draw(st.integers(min_value=0, max_value=8))
    dependencies = []
    for _ in range(count):
        lhs = draw(token_sets)
        rhs = draw(nonempty_token_sets)
        dependencies.append(FunctionalDependency.of(lhs, rhs))
    return FDSet(dependencies)


class TestClosureProperties:
    @given(fd_sets(), token_sets)
    @settings(max_examples=60, deadline=None)
    def test_closure_contains_seed(self, fds, seed):
        assert set(seed) <= fds.closure(seed)

    @given(fd_sets(), token_sets)
    @settings(max_examples=60, deadline=None)
    def test_closure_idempotent(self, fds, seed):
        once = fds.closure(seed)
        assert fds.closure(once) == once

    @given(fd_sets(), token_sets, token_sets)
    @settings(max_examples=60, deadline=None)
    def test_closure_monotone_in_seed(self, fds, smaller, extra):
        larger = set(smaller) | set(extra)
        assert fds.closure(smaller) <= fds.closure(larger)

    @given(fd_sets(), fd_sets(), token_sets)
    @settings(max_examples=60, deadline=None)
    def test_closure_monotone_in_fds(self, first, second, seed):
        combined = FDSet(list(first) + list(second))
        assert first.closure(seed) <= combined.closure(seed)

    @given(fd_sets(), token_sets)
    @settings(max_examples=60, deadline=None)
    def test_every_fired_fd_justified(self, fds, seed):
        """Each token in the closure but not the seed is the RHS of an FD whose
        LHS is inside the closure (soundness of the derivation)."""
        closure = fds.closure(seed)
        for token in closure - set(seed):
            assert any(
                token in dependency.rhs and dependency.lhs <= closure
                for dependency in fds
            )

    @given(fd_sets(), token_sets)
    @settings(max_examples=60, deadline=None)
    def test_closure_is_fixpoint(self, fds, seed):
        """No FD with satisfied LHS adds anything outside the closure (completeness)."""
        closure = fds.closure(seed)
        for dependency in fds:
            if dependency.lhs <= closure:
                assert dependency.rhs <= closure


class TestImplicationProperties:
    @given(fd_sets(), token_sets, token_sets)
    @settings(max_examples=60, deadline=None)
    def test_implication_matches_closure(self, fds, lhs, rhs):
        assert fds.implies(lhs, rhs) == (set(rhs) <= fds.closure(lhs))

    @given(fd_sets(), nonempty_token_sets)
    @settings(max_examples=40, deadline=None)
    def test_reflexive_implication(self, fds, attrs):
        assert fds.implies(attrs, attrs)

    @given(fd_sets())
    @settings(max_examples=40, deadline=None)
    def test_member_fds_are_implied(self, fds):
        for dependency in fds:
            assert dependency.rhs <= fds.closure(dependency.lhs)
