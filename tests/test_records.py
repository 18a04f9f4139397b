"""The result records as callers and the benchmark harness use them: they
pickle and compare by value, keep their types, refuse field assignment, and
print the same repr text."""

import pickle

import pytest

from helpers import Q5_VERTICES
from inellipse import (CanonicalQuad, EllipseGeometry, FamilyPoint, Isometry2,
                       MinEccResult, NewtonSegment, OracleReport, QuadClass,
                       canonicalize, classify, family_point, newton_segment,
                       solve, verify)
from inellipse.minecc import NUMERIC

GENERAL_VERTICES = [(0, 0), (0, 3), (4, 6), (2, 1)]


# the ids name the quads: one with the paper's closed-form optimum, one
# without; ``solve`` takes the same numeric root on both
@pytest.fixture(params=[Q5_VERTICES, GENERAL_VERTICES], ids=["closed_form", "numeric"])
def answer(request):
    cq = canonicalize(request.param)
    res = solve(cq)
    assert res.method == NUMERIC
    return cq, res


def records(cq, res):
    """One instance of every record type, taken from one solved quad."""
    lo, hi = cq.interval
    return {
        CanonicalQuad: cq,
        Isometry2: cq.iso,
        QuadClass: classify(cq),
        NewtonSegment: newton_segment(cq),
        EllipseGeometry: res.geom,
        FamilyPoint: family_point(cq, 0.5 * (lo + hi)),
        MinEccResult: res,
        OracleReport: verify(cq, res)[0],
    }


def test_answer_survives_pickle_with_its_types(answer):
    back = pickle.loads(pickle.dumps(answer, protocol=pickle.HIGHEST_PROTOCOL))
    assert back == answer and not back != answer
    cq, res = back
    assert type(cq) is CanonicalQuad and type(cq.iso) is Isometry2
    assert type(res) is MinEccResult
    assert type(res.geom) is EllipseGeometry


def test_every_record_survives_pickle(answer):
    for kind, rec in records(*answer).items():
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is kind
        assert back == rec and repr(back) == repr(rec)


def test_fields_cannot_be_assigned(answer):
    for kind, rec in records(*answer).items():
        for field in kind._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 0.0


def test_canonical_quad_repr():
    assert repr(CanonicalQuad.from_params(4, 6, 2, 2, 1)) == (
        "CanonicalQuad(s=4.0, t=6.0, u=2.0, v=2.0, w=1.0, iso=Isometry2(angle=0.0, "
        "translation=Point2(x=0.0, y=0.0), reflect=False))")
