"""The frozen records of every module: construction, repr, equality, hashing,
immutability, per-instance defaults, validation and cached fields."""

import pytest

from metricdim.bounds import BoundParams, PatternBounds
from metricdim.characterizations import Char2Result, TupleLemmaResult
from metricdim.constructions import ConstructionOutput
from metricdim.enumerator import SweepReport
from metricdim.graph_core import DistanceMatrix, Graph, GraphInputError, _unchecked
from metricdim.metric import ResolutionWitness
from metricdim.solver import DimensionCertificate, DistinguisherInstance

TRIANGLE = Graph(3, (6, 5, 3))
PATTERN_FIELDS = ("k", "max_clique_md", "max_star_emd", "star_md_lower", "star_md_upper", "biclique_md_lower",
                  "biclique_md_upper_floor", "biclique_md_upper_exact", "biclique_emd_lower",
                  "biclique_emd_upper_floor", "biclique_emd_upper_exact")
PATTERN_VALUES = (2, 4, 4, 6, 8, 1, 4, False, 2, 3, True)
SWEEP_FIELDS = ("theorem_id", "n_min", "n_max", "graphs_checked", "counts_by_n", "failures",
                "solver_budget_exhaustions", "elapsed_ms", "enumerate_ms", "data", "shares")
SWEEP_VALUES = ("char1-equiv", 3, 4, 8, {3: 2, 4: 6}, (("C~", "x"),), 0, 1.5, 0.5, {"k": 1}, ((4, 1.0),))

# (class, positional fields, the same fields by keyword, repr)
CASES = [
    (Graph, (3, (6, 5, 3)), {"n": 3, "adj": (6, 5, 3)}, "Graph(n=3, adj=(6, 5, 3))"),
    (DistanceMatrix, (2, ((0, 1), (1, 0))), {"n": 2, "rows": ((0, 1), (1, 0))},
     "DistanceMatrix(n=2, rows=((0, 1), (1, 0)))"),
    (ResolutionWitness, ("edge", (0, 1), (1, 2), (1,)), {"kind": "edge", "a": (0, 1), "b": (1, 2), "shared_vector": (1,)},
     "ResolutionWitness(kind='edge', a=(0, 1), b=(1, 2), shared_vector=(1,))"),
    (DistinguisherInstance, ("vertex", 3, (3, 5, 6)), {"kind": "vertex", "universe": 3, "masks": (3, 5, 6)},
     "DistinguisherInstance(kind='vertex', universe=3, masks=(3, 5, 6))"),
    (DimensionCertificate, ("vertex", 1, (0,), True, 2),
     {"kind": "vertex", "value": 1, "basis": (0,), "optimal": True, "nodes_explored": 2},
     "DimensionCertificate(kind='vertex', value=1, basis=(0,), optimal=True, nodes_explored=2)"),
    (ConstructionOutput, (TRIANGLE, (0,), {0: "u_1"}, {1: "01"}, (("leaf", "1"),)),
     {"graph": TRIANGLE, "landmarks": (0,), "roles": {0: "u_1"}, "labels": {1: "01"}, "deleted": (("leaf", "1"),)},
     "ConstructionOutput(graph=Graph(n=3, adj=(6, 5, 3)), landmarks=(0,), roles={0: 'u_1'}, labels={1: '01'}, "
     "deleted=(('leaf', '1'),))"),
    (Char2Result, (False, (0, 1, 2)), {"holds": False, "failing_triple": (0, 1, 2)},
     "Char2Result(holds=False, failing_triple=(0, 1, 2))"),
    (TupleLemmaResult, (False, False, (0, 3)), {"holds": False, "vacuous": False, "violating": (0, 3)},
     "TupleLemmaResult(holds=False, vacuous=False, violating=(0, 3))"),
    (BoundParams, (2, 3, 1), {"k": 2, "D": 3, "c": 1}, "BoundParams(k=2, D=3, c=1)"),
    (PatternBounds, PATTERN_VALUES, dict(zip(PATTERN_FIELDS, PATTERN_VALUES)),
     "PatternBounds(k=2, max_clique_md=4, max_star_emd=4, star_md_lower=6, star_md_upper=8, biclique_md_lower=1, "
     "biclique_md_upper_floor=4, biclique_md_upper_exact=False, biclique_emd_lower=2, biclique_emd_upper_floor=3, "
     "biclique_emd_upper_exact=True)"),
    (SweepReport, SWEEP_VALUES, dict(zip(SWEEP_FIELDS, SWEEP_VALUES)),
     "SweepReport(theorem_id='char1-equiv', n_min=3, n_max=4, graphs_checked=8, counts_by_n={3: 2, 4: 6}, "
     "failures=(('C~', 'x'),), solver_budget_exhaustions=0, elapsed_ms=1.5, enumerate_ms=0.5, data={'k': 1}, "
     "shares=((4, 1.0),))"),
]
UNHASHABLE = {ConstructionOutput, SweepReport}  # they hold dict fields


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=[case[0].__name__ for case in CASES])
class TestRecord:
    def test_repr(self, cls, args, kwargs, text):
        assert repr(cls(*args)) == repr(cls(**kwargs)) == text

    def test_equal_records_hash_alike(self, cls, args, kwargs, text):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and not a != b and a is not b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_differs_from_another_class_with_the_same_fields(self, cls, args, kwargs, text):
        other = type("Other", (cls,), {})(*args)
        assert cls(*args) != other and other != cls(*args)
        assert cls(*args).__eq__(args) is NotImplemented
        assert cls(*args) != args

    def test_assignment_and_deletion_raise(self, cls, args, kwargs, text):
        record = cls(*args)
        field = next(iter(kwargs))
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert getattr(record, field) == kwargs[field] and repr(record) == text


def test_defaults():
    assert BoundParams(2, 3) == BoundParams(2, 3, None) and BoundParams(2, 3).c is None
    out = ConstructionOutput(TRIANGLE, (0,))
    assert (out.roles, out.labels, out.deleted) == ({}, {}, ())
    report = SweepReport(*SWEEP_VALUES[:9])
    assert (report.data, report.shares) == ({}, ())


def test_dict_defaults_are_fresh_per_instance():
    first, second = ConstructionOutput(TRIANGLE, (0,)), ConstructionOutput(TRIANGLE, (0,))
    assert first.roles is not second.roles and first.labels is not second.labels
    assert first.roles is not first.labels
    first.roles[0] = "u_1"
    assert second.roles == {} and first != second
    reports = SweepReport(*SWEEP_VALUES[:9]), SweepReport(*SWEEP_VALUES[:9])
    assert reports[0].data is not reports[1].data
    reports[0].data["k"] = 1
    assert reports[1].data == {}


@pytest.mark.parametrize("build", [
    lambda: Graph(2, (2, 0)),
    lambda: Graph(-1, ()),
    lambda: Graph(2, (3, 1)),
    lambda: Graph(2, (2,)),
    lambda: BoundParams(0, 3),
    lambda: BoundParams(2, 3, 4),
    lambda: DistinguisherInstance("vertex", 2, (4,)),
    lambda: DistinguisherInstance("vertex", -1, ()),
], ids=["graph-asymmetric", "graph-negative-n", "graph-self-loop", "graph-short-table", "bound-k", "bound-c",
        "instance-outside", "instance-negative-universe"])
def test_validation_raises(build):
    with pytest.raises(GraphInputError):
        build()


def test_unchecked_skips_validation():
    G = _unchecked(Graph, n=2, adj=(1, 0))
    assert (G.n, G.adj) == (2, (1, 0)) and repr(G) == "Graph(n=2, adj=(1, 0))"
    inst = _unchecked(DistinguisherInstance, kind="vertex", universe=2, masks=(4,))
    assert inst.masks == (4,)
    assert _unchecked(Graph, n=3, adj=(6, 5, 3)) == TRIANGLE
    assert hash(_unchecked(Graph, n=3, adj=(6, 5, 3))) == hash(TRIANGLE)


@pytest.mark.parametrize("build, name", [
    (lambda: Graph(4, (2, 5, 10, 4)), "distances"),
    (lambda: Graph(4, (2, 5, 10, 4)), "within_two"),
    (lambda: DistanceMatrix(2, ((0, 1), (1, 0))), "connected"),
    (lambda: DistinguisherInstance("vertex", 3, (3, 5, 6)), "columns"),
])
def test_cached_fields_stay_out_of_equality(build, name):
    read, fresh = build(), build()
    value = getattr(read, name)
    assert getattr(read, name) is value and name in vars(read) and name not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    with pytest.raises(AttributeError):
        setattr(read, name, value)
