import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import Dataset


def test_basic_fields():
    ds = Dataset(np.array([1.0, 2.0]), np.array([3.0, 4.0]), {"seed": 0})
    assert ds.n == 2
    assert ds.meta["seed"] == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(2), {})


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Dataset(np.array([np.nan]), np.array([0.0]), {})


@pytest.mark.parametrize("u, y", [(1e151, 0.0), (0.0, -1e151), (0.0, np.inf)])
def test_entries_beyond_the_divergence_limit_rejected(u, y):
    # a rollout flags every state past 1e150 as diverged
    with pytest.raises(ValueError, match="at most 1e"):
        Dataset(np.array([u]), np.array([y]), {})
    assert Dataset(np.array([1e150]), np.array([-1e150]), {}).n == 1


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_csv_round_trip(tmp_path_factory, n, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=n), rng.normal(size=n), {})
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    ds.to_csv(path)
    back = Dataset.from_csv(path)
    np.testing.assert_array_equal(ds.u, back.u)
    np.testing.assert_array_equal(ds.y, back.y)


def test_csv_header(tmp_path):
    ds = Dataset(np.array([1.5]), np.array([-2.25]), {})
    path = tmp_path / "d.csv"
    ds.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,u,y"
    assert lines[1].startswith("1,")
