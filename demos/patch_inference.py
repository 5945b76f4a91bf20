"""How large images run through a fixed-size network.

The model only ever sees patch x patch inputs. Bigger images are padded by
reflection to the patch lattice, cut into overlapping tiles, predicted tile
by tile, and averaged back together. A 1000x1000 image at the default
patch settings becomes exactly 49 tiles.

Run from the repository root:  python3 demos/patch_inference.py
"""

import numpy as np

from mcads import data
from mcads.config import RunConfig
from mcads.infer import predict_probabilities
from mcads.network import SegmentationModel

# -- the lattice ------------------------------------------------------------
grid = data.plan_patches((1000, 1000), patch=256, stride=128)
print("padded to", grid.padded_hw, "->", len(grid.offsets), "tiles")
print("first offsets:", grid.offsets[:4])

# Reflect padding mirrors the border region instead of inventing black
# margins, so tile statistics stay tissue-like up to the edge. Row 1000 is
# row 998 mirrored about the last image row.
image = np.random.default_rng(0).uniform(0, 1, (1000, 1000, 1))
padded = data.reflect_pad(image, grid.padded_hw)
print("mirror check:", image[998, 0, 0], "==", padded[1000, 0, 0])

# Feeding the tiles straight back reproduces the image on its original
# region: overlap averaging is exact when every tile agrees.
tiles = [padded[r:r + 256, c:c + 256] for r, c in grid.offsets]
rebuilt = data.reassemble(tiles, grid)
print("identity reassembly error:", float(np.abs(rebuilt - image).max()))

# Interior pixels are covered by up to four tiles at stride = patch/2.
cover = np.zeros(grid.padded_hw)
for r, c in grid.offsets:
    cover[r:r + 256, c:c + 256] += 1
print("coverage counts:", sorted(np.unique(cover).astype(int)))

# -- with a real model ------------------------------------------------------
# Tiny widths and a 96x96 image keep this instant; the call is the same one
# the command-line `predict` uses.
cfg = RunConfig.desk()
cfg.model.encoder.stage_filters = (4, 4, 8, 8, 8, 8)
cfg.model.encoder.rsu_depths = (4, 4, 3, 3, 3, 3)
model = SegmentationModel(cfg.model)
rgb = np.random.default_rng(1).uniform(0, 1, (96, 96, 3)).astype(np.float32)
prob = predict_probabilities(model, rgb, patch=32, stride=16)
print("prediction:", prob.shape, prob.dtype,
      "range", (round(float(prob.min()), 4), round(float(prob.max()), 4)))
