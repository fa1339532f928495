"""The records of the surfaces and bd modules are immutable named tuples.

Every record is checked on an instance taken from one real computation (the
genus-2 example realized and its invariants read at n = 3): no field can be
reassigned and no attribute added, the two records that check their input
still check it (``PantsLamination`` and ``SurfaceSpec``, also when
unpickled), and hashing works exactly when every field is hashable.
"""
import pickle

import pytest

from bdcoords import bd, surfaces
from bdcoords.surfaces import (SLOTS, LaminationError, PantsLamination, SurfaceSpec,
                               fan_cycle, genus2_spec, tables_for)


def _is_record(module, name, value):
    return (isinstance(value, type) and issubclass(value, tuple)
            and value.__module__ == module.__name__ and not name.startswith("_"))


RECORDS = sorted((value for module in (surfaces, bd)
                  for name, value in vars(module).items() if _is_record(module, name, value)),
                 key=lambda cls: cls.__name__)


def _instances() -> dict:
    """One instance of every record, keyed by its class."""
    spec = genus2_spec()
    shears = {pid: {"B12": 0.9, "B13": 0.7, "B23": 1.1} for pid in spec.pants}
    sp = bd.SlicePoint(shears=shears, gluing={cid: 0.3 for cid in spec.curves})
    ds = bd.realize_slice(sp, spec)
    vec = bd.bd_vector(ds, 3)
    lam = spec.pants["P0"]
    tables = tables_for(lam)
    pants = ds.pants["P0"]
    found = [lam, spec, tables, tables.leaf_sides["B12"][0], fan_cycle(lam, 1)[0],
             pants.triangles[0], pants.fans[1], pants.leaf_quadruples["B12"], pants,
             ds.curves["C1"], ds, vec, bd.closed_leaf_report(vec, ds), sp]
    return {type(record): record for record in found}


INSTANCES = _instances()


def test_every_record_has_an_instance():
    assert sorted(INSTANCES, key=lambda cls: cls.__name__) == RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    record = INSTANCES[cls]
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_lamination_copies_its_input_and_fills_default_orientations():
    signs = {1: 1, 2: -1, 3: 1}
    orientations = {"B13": 3}
    lam = PantsLamination(kind="I", spiral_signs=signs, leaf_orientations=orientations)
    signs[2] = 1
    orientations["B13"] = 1
    assert lam.spiral_signs == {1: 1, 2: -1, 3: 1}
    assert lam.leaf_orientations == {"B12": 1, "B13": 3, "B23": 2}
    kind_ii = PantsLamination(kind="II", spiral_signs=signs, leaf_orientations={},
                              distinguished=2)
    assert kind_ii.leaf_orientations == {"B22": 0, "B23": 2, "B12": 1}


def test_specs_that_differ_in_one_curve_end_are_unequal():
    spec = genus2_spec()
    curves = dict(spec.curves, C1=(("P0", 1), ("P1", 2)), C2=(("P0", 2), ("P1", 1)))
    other = SurfaceSpec(genus=2, pants=spec.pants, curves=curves)
    assert other != spec
    assert SurfaceSpec(genus=2, pants=dict(spec.pants), curves=dict(spec.curves)) == spec


@pytest.mark.parametrize("record", [genus2_spec(), genus2_spec().pants["P0"],
                                    PantsLamination("II", {s: 1 for s in SLOTS}, {}, 3)],
                         ids=["spec", "kind-I", "kind-II"])
def test_pickled_record_loads_back_equal(record):
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is type(record) and loaded == record


def test_unpickling_runs_the_checks():
    # a record built past its checks is refused when it is loaded back
    bad = tuple.__new__(PantsLamination, ("III", {s: 1 for s in SLOTS}, {}, None))
    with pytest.raises(LaminationError, match="unknown lamination kind 'III'"):
        pickle.loads(pickle.dumps(bad))


def test_a_record_hashes_exactly_when_its_fields_do():
    side = INSTANCES[surfaces.LeafSide]
    assert hash(side) == hash(surfaces.LeafSide(side.tri, side.corners))
    with pytest.raises(TypeError, match="unhashable"):
        hash(genus2_spec())
