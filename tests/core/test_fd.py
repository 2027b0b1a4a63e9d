"""Unit tests for functional dependencies and implication."""

import pytest

from repro.core.fd import FDSet, FunctionalDependency, closure, implies


def fd(lhs, rhs):
    return FunctionalDependency.of(lhs, rhs)


class TestFunctionalDependency:
    def test_of_builds_frozensets(self):
        dependency = fd(["a", "b"], ["c"])
        assert dependency.lhs == frozenset({"a", "b"})
        assert dependency.rhs == frozenset({"c"})

    def test_size(self):
        assert fd(["a", "b"], ["c"]).size == 3
        assert fd([], ["c"]).size == 1

    def test_str_rendering(self):
        assert "->" in str(fd(["a"], ["b"]))
        assert str(fd([], ["b"])).startswith("∅")


class TestClosure:
    def test_textbook_closure(self):
        fds = FDSet([fd("a", "b"), fd("b", "c"), fd(["c", "d"], "e")])
        assert fds.closure(["a"]) == frozenset({"a", "b", "c"})
        assert fds.closure(["a", "d"]) == frozenset({"a", "b", "c", "d", "e"})

    def test_closure_requires_full_lhs(self):
        fds = FDSet([fd(["a", "b"], "c")])
        assert "c" not in fds.closure(["a"])
        assert "c" in fds.closure(["a", "b"])

    def test_empty_lhs_fires_unconditionally(self):
        fds = FDSet([fd([], "month"), fd("month", "quarter")])
        assert fds.closure([]) == frozenset({"month", "quarter"})

    def test_closure_of_empty_fdset(self):
        assert FDSet().closure(["a"]) == frozenset({"a"})

    def test_cyclic_dependencies_terminate(self):
        fds = FDSet([fd("a", "b"), fd("b", "a")])
        assert fds.closure(["a"]) == frozenset({"a", "b"})

    def test_self_dependency_adds_nothing_new(self):
        # The regression behind Example 1's Q2: (pid,cid) -> (pid,cid) must not
        # make cid derivable from pid alone.
        fds = FDSet([fd(["pid", "cid"], ["pid", "cid"]), fd(["pid", "year"], ["cid"])])
        assert fds.closure(["pid"]) == frozenset({"pid"})

    def test_module_level_helpers(self):
        deps = [fd("a", "b")]
        assert closure(["a"], deps) == frozenset({"a", "b"})
        assert implies(deps, ["a"], ["b"])
        assert not implies(deps, ["b"], ["a"])


class TestImplication:
    def test_implies_fd(self):
        fds = FDSet([fd("a", "b"), fd("b", "c")])
        assert fds.implies_fd(fd("a", "c"))
        assert not fds.implies_fd(fd("c", "a"))

    def test_reflexivity(self):
        assert FDSet().implies(["a", "b"], ["a"])

    def test_augmentation_style(self):
        fds = FDSet([fd("a", "b")])
        assert fds.implies(["a", "c"], ["b", "c"])


class TestFDSetContainer:
    def test_iteration_len_contains(self):
        one = fd("a", "b")
        fds = FDSet([one])
        assert len(fds) == 1
        assert one in fds
        assert list(fds) == [one]

    def test_attributes(self):
        fds = FDSet([fd(["a", "b"], "c"), fd("d", "e")])
        assert fds.attributes() == {"a", "b", "c", "d", "e"}

    def test_size(self):
        fds = FDSet([fd(["a", "b"], "c"), fd("d", "e")])
        assert fds.size == 5
