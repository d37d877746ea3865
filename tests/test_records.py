"""The result records: construction, field access, immutability and equality.

These tests hold for any immutable record design (frozen dataclasses or
named tuples), so they pin the behaviour callers rely on, not the
implementation.  Fields are copied through explicit name lists for the
same reason.
"""

import pytest

from ngostrings.graphs import VertexPartition
from ngostrings.hypertoric import (
    CircuitRelation,
    LocalModelDims,
    StratumRecord,
    local_model_dims,
)
from ngostrings.intlinalg import ExactnessReport
from ngostrings.partitions import Partition
from ngostrings.strings import StratumDims, StringTable, stratum_dims

STRATUM_DIMS_FIELDS = (
    "partition", "g", "dim_A", "dim_S", "codim_S", "component_genera",
    "genus_sum", "delta", "spectral_genus", "psi",
)
LOCAL_MODEL_FIELDS = (
    "n", "g", "partition", "s", "b1", "d_dim", "c_dim", "dim_M", "dim_Y", "dim_X", "dim_Jbar",
)


def _fields(record, names):
    return {name: getattr(record, name) for name in names}


# (record class, keyword arguments) for one valid record of each class;
# every call builds new field objects
def _examples():
    dims = stratum_dims(Partition([2, 1, 1]), 3)
    local = local_model_dims(Partition([2, 1, 1]), 3)
    return [
        (
            ExactnessReport,
            dict(
                ok=False, product_is_zero=True, b_injective=True, a_surjective_over_z=False,
                spans_kernel=True, saturated=True, failures=("A not surjective over Z",),
            ),
        ),
        (StratumDims, _fields(dims, STRATUM_DIMS_FIELDS)),
        (StringTable, dict(n=4, d=2, q=2, ranks={Partition([4]): 0}, multiplier_partitions=())),
        (CircuitRelation, dict(index=2, coefficients=(1, -1))),
        (
            StratumRecord,
            dict(
                vp=VertexPartition([[0, 1], [2]]), s_contracted=2, deleted_loops=1, b1_contracted=1,
                codim_in_X=3, codim_in_Y=2, fiber_dim=1, multiplicity=2,
            ),
        ),
        (LocalModelDims, _fields(local, LOCAL_MODEL_FIELDS)),
    ]


EXAMPLES = _examples()
IDS = [cls.__name__ for cls, _ in EXAMPLES]


@pytest.mark.parametrize("cls, kwargs", EXAMPLES, ids=IDS)
def test_keyword_construction_and_field_access(cls, kwargs):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls, kwargs", EXAMPLES, ids=IDS)
def test_fields_cannot_be_assigned(cls, kwargs):
    record = cls(**kwargs)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize(
    "cls, kwargs, twin", [(cls, kwargs, twin) for (cls, kwargs), (_, twin) in zip(EXAMPLES, _examples())], ids=IDS
)
def test_equal_records_compare_and_hash_equal(cls, kwargs, twin):
    a, b = cls(**kwargs), cls(**twin)
    assert a == b
    if cls is StringTable:
        # a dict field is unhashable, so the record is too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_circuit_relation_repr_and_str():
    relation = CircuitRelation(index=2, coefficients=(1, -1))
    assert repr(relation) == "CircuitRelation(index=2, coefficients=(1, -1))"
    assert str(relation) == "z1*w1 - z2*w2"


def test_bool_follows_ok():
    kwargs = dict(
        product_is_zero=True, b_injective=True, a_surjective_over_z=True,
        spans_kernel=True, saturated=True, failures=(),
    )
    assert bool(ExactnessReport(ok=True, **kwargs)) is True
    assert bool(ExactnessReport(ok=False, **kwargs)) is False


def test_string_table_multiplier_partitions_default():
    table = StringTable(n=4, d=1, q=1, ranks={Partition([4]): 1})
    assert table.multiplier_partitions == ()
    assert table.rank(Partition([4])) == 1
