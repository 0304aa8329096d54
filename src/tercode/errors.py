"""Exception hierarchy for the tercode package, and the dataclass field type check."""

import dataclasses


class TercodeError(Exception):
    """Base class for all tercode errors."""


class ParseError(TercodeError):
    """Base class for test-set file format errors."""


class EmptyInput(ParseError):
    """The test-set input contains no patterns."""


class RaggedRows(ParseError):
    """Test-set rows have differing lengths."""


class IllegalCharacter(ParseError):
    """A character outside the {0,1,X,x} alphabet was found."""


class CodecError(TercodeError):
    """Base class for covering/coding errors."""


class LengthMismatch(CodecError):
    """A matching vector and an input block differ in length."""


class UnmatchedBlock(CodecError):
    """No matching vector matches an input block; the MV set is infeasible.

    ``block_index`` is the 1-based ordinal of the first unmatched block,
    ``count`` the number of unmatched blocks.
    """

    def __init__(self, block_index: int, count: int):
        super().__init__(f"no matching vector matches input block {block_index}")
        self.block_index = block_index
        self.count = count


class AllZeroFrequencies(CodecError):
    """Every matching vector has frequency zero; there is nothing to code."""


class NoCodeword(CodecError):
    """A matching vector has no codebook entry."""


class NotMatching(CodecError):
    """Attempted to encode a block with a vector that does not match it."""


class ZeroOriginal(CodecError):
    """Compression rate is undefined for an empty original test set."""


class ContainerError(TercodeError):
    """Base class for container (de)serialization errors."""


class BadMagic(ContainerError):
    """The container does not start with the expected magic bytes."""


class UnsupportedVersion(ContainerError):
    """The container declares a format version this reader cannot handle."""


class CorruptHeader(ContainerError):
    """The container is truncated or structurally malformed."""


class ChecksumMismatch(ContainerError):
    """The container checksum does not match its contents."""


class OutputTooLarge(ContainerError):
    """The stream declares more symbols than the decoder may produce."""


class TruncatedPayload(ContainerError):
    """The payload ended in the middle of a codeword or its fill bits."""


class DanglingBits(ContainerError):
    """The payload holds more bits than the declared block count decodes."""


class UnknownCodeword(ContainerError):
    """A payload prefix matches no codeword in the codebook."""


class InvalidConfig(TercodeError):
    """An evolutionary-search or CLI configuration value is out of range."""


def check_field_types(obj, error: type[Exception] = InvalidConfig,
                      minimum: dict[str, int] | None = None) -> None:
    """Raise ``error`` for the first field of dataclass ``obj`` not of its declared
    type, or below its entry in ``minimum``; a bool is no int or float, and an
    ``int | None`` field takes None."""
    kinds = {"int": (int, "an integer"), "float": ((int, float), "a number"),
             "bool": (bool, "true or false")}
    for f in dataclasses.fields(obj):
        value, kind = getattr(obj, f.name), f.type.removesuffix(" | None")
        if kind in kinds and (value is not None or kind == f.type):
            want, name = kinds[kind]
            low = (minimum or {}).get(f.name)
            name += "" if low is None else f" >= {low}"
            if (not isinstance(value, want) or isinstance(value, bool) != (kind == "bool")
                    or low is not None and value < low):
                raise error(f"{f.name} must be {name}, got {value!r}")


class OddK(InvalidConfig):
    """The nine-vector scheme requires an even block length."""
