"""tercode: block-code compression for ternary test sets.

Test sets over {0,1,X} are cut into fixed-length input blocks, each
block is matched against a vector over {0,1,U}, and a block is
transmitted as its vector's Huffman codeword plus explicit bits for the
vector's U positions.  The vector set itself comes either from the
fixed nine-vector baseline or from an evolutionary search.
"""

from .baseline9c import nine_codebook, nine_mvs
from .codec import (
    BlockStats,
    Codebook,
    Covering,
    EncodedStream,
    MatchingVector,
    build_huffman,
    compression_rate,
    cover,
    decode,
    encode_all,
    subsume_merge,
)
from .container import read_container, write_container
from .core import (
    TestSet,
    flatten,
    original_size_bits,
    parse_test_set,
    partition,
    write_test_set,
)
from .corpus import CorpusSpec, generate_corpus
from .ea import (
    EaConfig,
    EvolutionReport,
    crossover,
    evaluate_fitness,
    evolve,
    invert,
    mutate,
    random_individual,
    run_many,
)
from .pipeline import CompressResult, compress

__version__ = "0.1.0"
