"""The four late-fusion strategies on one worked image/audio lattice pair.

The image lattice mistakes the second symbol, the audio lattice mistakes the
third; both lattices still contain the right alternative with some mass, so
fusion can recover the full truth where each unimodal decode cannot.

Run:  python demos/04_fusion_strategies.py
"""

from latfuse import METHODS, FusionConfig, WordGraph, best_path, run_fusion

TRUTH = ("clef-G2", "note-C4", "note-D4", "note-E4", "barline")
# lightly_ia corrects the image 1-best with the audio lattice, lightly_ai
# the audio 1-best with the image lattice
NAMES = {"lightly_ia": "lightly (IA)", "lightly_ai": "lightly (AI)"}


def sausage(columns):
    edges = []
    for t, col in enumerate(columns):
        for lab, score in col:
            edges.append((t, t + 1, lab, score))
    return WordGraph(len(columns) + 1, 0, {len(columns)}, edges)


# image: confuses note-C4 with note-G4, and with low confidence (the truth
# stays in the lattice as the runner-up)
wg_image = sausage([
    [("clef-G2", 0.90), ("clef-F4", 0.10)],
    [("note-G4", 0.45), ("note-C4", 0.40), ("note-E4", 0.15)],
    [("note-D4", 0.85), ("note-E4", 0.15)],
    [("note-E4", 0.80), ("note-F4", 0.20)],
    [("barline", 0.95), ("rest", 0.05)],
])
# audio: confuses note-E4 with note-F4 instead
wg_audio = sausage([
    [("clef-G2", 0.80), ("clef-C3", 0.20)],
    [("note-C4", 0.75), ("note-G4", 0.25)],
    [("note-D4", 0.70), ("note-C4", 0.30)],
    [("note-F4", 0.50), ("note-E4", 0.45), ("rest", 0.05)],
    [("barline", 0.90), ("rest", 0.10)],
])

print("truth        :", " ".join(TRUTH))
print("image 1-best :", best_path(wg_image)[0].to_text())
print("audio 1-best :", best_path(wg_audio)[0].to_text())
print()

for method in METHODS:
    out = run_fusion(wg_image, wg_audio, FusionConfig(alpha=0.5, method=method))
    print(f"{NAMES.get(method, method):<13}:", out.to_text())
print()

print("alpha sweep for the risk-based fusion (1.0 would mean image only):")
for alpha in (0.2, 0.4, 0.6, 0.8):
    out = run_fusion(wg_image, wg_audio, FusionConfig(alpha=alpha, method="mbr"))
    print(f"  alpha {alpha:.1f}: {out.to_text()}")
