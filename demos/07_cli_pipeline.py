"""The full command-line pipeline in one temporary directory.

WAV files -> extract-features -> manifests -> train -> eval, plus the
built-in gradient self-check.  Everything runs in-process through
cli.main, exactly as the `crnn` console script would, and the directory
is removed when the demo ends.
"""
import tempfile
from pathlib import Path

import numpy as np

from crnn import cli
from crnn.data import write_wav


def run(tmp: Path) -> None:
    print(f"working in {tmp}\n")

    # Two "speakers", two classes: low vs high tones, 0.3 s each.
    rate = 16000
    t = np.arange(int(0.3 * rate)) / rate
    lines = []
    for i in range(8):
        label = i % 2
        freq = 300.0 + 40.0 * i if label == 0 else 2000.0 + 40.0 * i
        write_wav(tmp / f"clip{i}.wav", 0.4 * np.sin(2 * np.pi * freq * t), rate)
        lines.append(f"clip{i}.wav\t{label}\tspk{i % 3}")
    (tmp / "audio.tsv").write_text("\n".join(lines) + "\n")

    print("$ crnn extract-features --data audio.tsv --out feats")
    cli.main(["extract-features", "--data", str(tmp / "audio.tsv"),
              "--out", str(tmp / "feats")])

    # The same manifest serves train and validation in this toy setup.
    config = f"""
input_dim = 26
classes = 2
layer1.kind = clstm
layer1.features = 8
layer1.window = 5
layer1.shift = 2
layer1.source = cell
layer1.reduction = max
classifier_dim = 8
dense_dim = 8
aggregation = all
normalize = true
max_epochs = 10
batch_size = 4
seed = 3
train_manifest = {tmp / 'feats' / 'manifest.tsv'}
val_manifest = {tmp / 'feats' / 'manifest.tsv'}
test_manifest = {tmp / 'feats' / 'manifest.tsv'}
out_dir = {tmp / 'run'}
"""
    (tmp / "run.cfg").write_text(config)

    print("\n$ crnn train --config run.cfg")
    cli.main(["train", "--config", str(tmp / "run.cfg")])

    print("\n$ crnn eval --config run.cfg")
    cli.main(["eval", "--config", str(tmp / "run.cfg")])

    print("\n$ crnn gradcheck")
    cli.main(["gradcheck"])

    print("\nartifacts:")
    for p in sorted((tmp / "run").iterdir()):
        print(f"  {p.name}  {p.stat().st_size} bytes")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="crnn-demo-") as workdir:
        run(Path(workdir))
