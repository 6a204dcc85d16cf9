"""Speech-driven 3D lip animation: audio features in, vertex displacements out."""

import os
import sys

# One BLAS thread unless the environment names a count: a product split over
# threads sums in another order, so a checkpoint's bytes would depend on the
# cores. BLAS reads these once, when numpy loads, so a caller that imported
# numpy before any lipsync module keeps its own setting.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
