import os
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import tercode

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and no per-example
# deadline (the reference merge prices every candidate with a full code)
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# keep pytest from collecting the TestSet dataclass as a test class
tercode.TestSet.__test__ = False
tercode.core.TestSet.__test__ = False
