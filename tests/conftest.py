"""Shared fixtures for the dcache-repro test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import make_kernel
from repro.sim.costs import CostModel, UNIT
from repro.testing import DualKernel

#: ``pytest --hypothesis-profile=thorough`` runs each property harder; a
#: plain ``pytest`` keeps the default example count.  Not named ``ci``:
#: Hypothesis loads its own ``ci`` profile whenever it detects a CI
#: environment, and re-registering that name would reload it for every
#: test there.
settings.register_profile("thorough", max_examples=1000)


@pytest.fixture
def baseline():
    """A fresh baseline (unmodified-Linux-style) kernel."""
    return make_kernel("baseline")


@pytest.fixture
def optimized():
    """A fresh optimized (paper design) kernel."""
    return make_kernel("optimized")


@pytest.fixture(params=["baseline", "optimized"])
def kernel(request):
    """Parametrized: each test runs against both kernel profiles."""
    return make_kernel(request.param)


@pytest.fixture
def dual():
    """A synchronized baseline/optimized pair (equivalence oracle)."""
    return DualKernel()


@pytest.fixture
def unit_costs():
    """A cost model where every primitive costs 1 ns (counting tests)."""
    return CostModel(dict(UNIT))


def build_tree(kernel, task, spec, base="") -> None:
    """Create a tree from a nested dict spec.

    Keys are names; values are dicts (subdirectories), strings (file
    contents), or ("symlink", target) tuples.
    """
    from repro import O_CREAT, O_RDWR

    sys = kernel.sys
    for name, value in spec.items():
        path = f"{base}/{name}"
        if isinstance(value, dict):
            sys.mkdir(task, path)
            build_tree(kernel, task, value, path)
        elif isinstance(value, tuple) and value[0] == "symlink":
            sys.symlink(task, value[1], path)
        else:
            fd = sys.open(task, path, O_CREAT | O_RDWR)
            if value:
                sys.write(task, fd, value.encode())
            sys.close(task, fd)


@pytest.fixture
def tree_builder():
    return build_tree
