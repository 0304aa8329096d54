import pytest

from tercode.corpus import CorpusSpec, generate_corpus
from tercode.errors import InvalidConfig


@pytest.mark.parametrize("field, value, kind", [
    ("patterns", "3", "an integer"),
    ("x_density", "0.1", "a number"),
    ("templates", 2.5, "an integer"),
    ("patterns", True, "an integer"),
    ("rng_seed", 1.5, "an integer"),
])
def test_fields_must_have_their_declared_types(field, value, kind):
    with pytest.raises(InvalidConfig, match=f"^{field} must be {kind}, got {value!r}$"):
        CorpusSpec(**{"patterns": 2, "width": 4, field: value})


def test_integers_are_numbers():
    as_ints = CorpusSpec(patterns=2, width=4, x_density=0, flip_probability=1)
    as_floats = CorpusSpec(patterns=2, width=4, x_density=0.0, flip_probability=1.0)
    assert generate_corpus(as_ints) == generate_corpus(as_floats)
