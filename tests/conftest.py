import dataclasses
import inspect
import pickle
import warnings

import numpy as np
import pytest

from readk.family import FamilySpec, ReadFunction, Variable

# Hypothesis imports this module (and through it libcst) only to report a
# failing property, inside pytest's report hook. libcst warns a
# DeprecationWarning on import, which the session's filterwarnings turns
# into an error that ends the session before the falsifying example is
# shown. Importing it here, with that warning silenced, keeps the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def xor_family() -> FamilySpec:
    """Y0 = X0 and Y1 = X0 xor X1 on two fair bits (read width 2)."""
    return FamilySpec(
        (Variable("x0", 2), Variable("x1", 2)),
        (ReadFunction("y0", (0,), "01"), ReadFunction("y1", (0, 1), "0110")),
    )


@pytest.fixture
def block_family() -> FamilySpec:
    """Two fair bits, each copied twice: Y0=Y1=X0, Y2=Y3=X1 (read width 2)."""
    return FamilySpec(
        (Variable("x0", 2), Variable("x1", 2)),
        (
            ReadFunction("y0", (0,), "01"),
            ReadFunction("y1", (0,), "01"),
            ReadFunction("y2", (1,), "01"),
            ReadFunction("y3", (1,), "01"),
        ),
    )


def random_distribution(rng: np.random.Generator, outcomes) -> "Distribution":
    """A random strictly-positive distribution over the given outcomes."""
    from readk.info_theory import Distribution

    raw = rng.random(len(outcomes)) + 1e-3
    total = raw.sum()
    return Distribution(tuple(outcomes), tuple(float(x / total) for x in raw))


def weighted_variant(spec, rng):
    """Same structure, random non-uniform probabilities."""
    variables = []
    for v in spec.variables:
        raw = rng.random(v.support_size) + 0.05
        variables.append(
            Variable(v.name, v.support_size, tuple(float(x) for x in raw / raw.sum()))
        )
    return FamilySpec(tuple(variables), spec.functions)


def assert_frozen_dataclass_contract(obj, args):
    """``obj``, built from the positional ``args``, keeps the frozen dataclass contract.

    Its ``__init__`` takes the fields in order, positionally or by keyword,
    with the fields' defaults; the fields sit in ``__dict__`` in field order;
    assignment and deletion raise ``FrozenInstanceError``; ``==``,
    ``hash``, ``repr``, ``asdict``, ``astuple`` and a pickle round trip are
    the dataclass's.
    """
    cls = type(obj)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    values = dict(zip(names, args))
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in fields]
    for twin in (cls(*args), cls(**values), cls(*args[:1], **dict(list(values.items())[1:]))):
        assert twin == obj and hash(twin) == hash(obj)
    assert list(vars(obj).items()) == list(values.items())
    assert repr(obj) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
    assert dataclasses.asdict(obj) == values
    assert dataclasses.astuple(obj) == tuple(args)
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and back == obj and hash(back) == hash(obj)
    assert list(vars(back).items()) == list(values.items())
    for name in (*names, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, args[0])
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert list(vars(obj).items()) == list(values.items())
    for bad in ((), (*args, None)):
        with pytest.raises(TypeError):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*args, other=None)
