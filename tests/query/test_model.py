"""Query/agg declarative model: validation and binding."""

import numpy as np
import pytest

from repro.core import EarlConfig
from repro.query import Aggregate, Query, agg, plan_query


def small_table(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "key": rng.choice(["a", "b"], size=n),
        "value": rng.lognormal(2.0, 0.5, n),
        "x": rng.normal(size=n),
        "y": rng.normal(size=n),
    }


class TestAgg:
    def test_default_name(self):
        assert agg("mean", "value").name == "mean(value)"
        assert agg("correlation", ("x", "y")).name == "correlation(x, y)"

    def test_explicit_name_and_sigma(self):
        a = agg("p90", "value", sigma=0.1, name="tail")
        assert (a.name, a.sigma) == ("tail", 0.1)

    def test_unknown_statistic_rejected(self):
        with pytest.raises(KeyError):
            agg("nope", "value")

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            agg("mean", "value", sigma=0.0)
        with pytest.raises(ValueError):
            agg("mean", "value", sigma=1.5)

    def test_scalar_statistic_refuses_column_pair(self):
        with pytest.raises(ValueError):
            agg("mean", ("x", "y"))

    def test_row_statistic_requires_column_pair(self):
        with pytest.raises(ValueError):
            agg("correlation", "x")
        with pytest.raises(ValueError):
            agg("correlation", ("x", "y", "z"))

    def test_columns_property(self):
        assert agg("mean", "value").columns == ("value",)
        assert agg("correlation", ("x", "y")).columns == ("x", "y")


class TestQueryValidation:
    def test_empty_select_rejected(self):
        with pytest.raises(ValueError):
            Query([])

    def test_non_aggregate_select_rejected(self):
        with pytest.raises(TypeError):
            Query(["mean"])

    def test_duplicate_aggregate_names_rejected(self):
        with pytest.raises(ValueError):
            Query([agg("mean", "value"), agg("mean", "value")])

    def test_bad_where_shapes_rejected(self):
        with pytest.raises(ValueError):
            Query([agg("mean", "value")], where=("value", "~", 1))
        with pytest.raises(ValueError):
            Query([agg("mean", "value")], where=("value",))

    def test_unbound_query_refuses_execution(self):
        q = Query([agg("mean", "value")], group_by="key")
        with pytest.raises(RuntimeError):
            q.run()


class TestBindingAndPlanning:
    def test_on_returns_bound_copy(self):
        q = Query([agg("mean", "value")], group_by="key")
        bound = q.on(small_table(), config=EarlConfig(seed=1))
        assert q.source is None and bound.source is not None
        assert bound.config is not None

    def test_missing_column_named(self):
        q = Query([agg("mean", "missing")], group_by="key") \
            .on(small_table())
        with pytest.raises(KeyError, match="missing"):
            q.plan()

    def test_mismatched_column_lengths_rejected(self):
        table = small_table()
        table["value"] = table["value"][:-1]
        q = Query([agg("mean", "value")], group_by="key").on(table)
        with pytest.raises(ValueError):
            q.plan()

    def test_where_triple_filters_population(self):
        table = small_table()
        cutoff = float(np.median(table["value"]))
        q = Query([agg("mean", "value")], group_by="key",
                  where=("value", ">", cutoff)) \
            .on(table, config=EarlConfig(seed=2))
        session = q.plan()
        expected = int((table["value"] > cutoff).sum())
        result = session.run()
        assert result.population_size == expected

    def test_where_callable_mask(self):
        table = small_table()
        q = Query([agg("mean", "value")], group_by="key",
                  where=lambda cols: cols["key"] == "a") \
            .on(table, config=EarlConfig(seed=2))
        result = q.plan().run()
        assert list(result.groups) == ["a"]

    def test_where_filtering_everything_rejected(self):
        q = Query([agg("mean", "value")], group_by="key",
                  where=("value", "<", -1.0)).on(small_table())
        with pytest.raises(ValueError):
            q.plan()

    def test_where_mask_shape_checked(self):
        q = Query([agg("mean", "value")], group_by="key",
                  where=lambda cols: np.array([1, 2, 3])) \
            .on(small_table())
        with pytest.raises(ValueError):
            q.plan()

    def test_ungrouped_query_uses_all_rows_key(self):
        table = small_table()
        result = Query([agg("mean", "value")]) \
            .on(table, config=EarlConfig(seed=3)).run()
        assert list(result.groups) == ["all"]
        # small table -> exact fallback; the answer is the exact mean
        res = result.groups["all"]["mean(value)"]
        assert res.estimate == pytest.approx(float(np.mean(table["value"])))

    def test_plan_builds_fresh_session_per_execution(self):
        q = Query([agg("mean", "value")], group_by="key") \
            .on(small_table(), config=EarlConfig(seed=4))
        first = q.run()
        second = q.run()   # a session streams once; Query re-plans
        assert first.groups.keys() == second.groups.keys()

    def test_aggregate_is_frozen_value_object(self):
        a = agg("mean", "value")
        assert isinstance(a, Aggregate)
        with pytest.raises(AttributeError):
            a.name = "other"
