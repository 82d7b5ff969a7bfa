package dse_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"wsndse/internal/casestudy"
	"wsndse/internal/dse"
	"wsndse/internal/scenario"
)

// TestCheckpointBytesGolden pins the checkpoint file format byte for
// byte: it hashes every dse.EncodeSnapshotFile output of fixed nsga2,
// mosa and random jobs on ecg-ward and mixed-ward, checkpointing at every
// boundary. A change to the snapshot types or their encoding that moves
// one byte of one file changes a digest, so files written by an older
// build keep loading and files written by this one stay comparable.
func TestCheckpointBytesGolden(t *testing.T) {
	want := map[string]struct {
		files  int
		sha256 string
	}{
		"ecg-ward/nsga2":    {7, "f33cfcd22e2d28b43c642a22632dd84bd0d01c6a76fd4477783dd4b1bf9af237"},
		"ecg-ward/mosa":     {7, "f2252e64d033f03380cd135c57aef95cfb49ef7604566d747ab99cd1829eebc6"},
		"ecg-ward/random":   {2, "50fcdc3c817647fce4c15c36e127659c1867c74163d992e503be184a782ca4bf"},
		"mixed-ward/nsga2":  {7, "162f6f7c86482c6aa5741af0be2d5016ff0fb9f5b525a2f0279e418f8509927e"},
		"mixed-ward/mosa":   {7, "ffcdff51241c6c6e257b4c18c1aaea968151daa3ddc610d806555d37f4e86157"},
		"mixed-ward/random": {2, "b2641b4918067d148e54a048cde5a33b3deef54e7aef8146b9231c7d280465bd"},
	}
	searches := []dse.Search{
		{Algorithm: "nsga2", Seed: 7, Workers: 2, NSGA2: &dse.NSGA2Config{PopulationSize: 16, Generations: 8}},
		{Algorithm: "mosa", Seed: 7, Workers: 2, MOSA: &dse.MOSAConfig{Iterations: 4096, Restarts: 2}},
		{Algorithm: "random", Seed: 7, Workers: 2, Budget: 3000},
	}
	for _, name := range []string{"ecg-ward", "mixed-ward"} {
		sc, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		problem, err := scenario.NewProblem(sc, casestudy.DefaultCalibration())
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := problem.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range searches {
			key := name + "/" + s.Algorithm
			h, files := sha256.New(), 0
			opts := dse.Options{CheckpointEvery: 1, Checkpoint: func(snap *dse.Snapshot) error {
				data, err := dse.EncodeSnapshotFile(snap)
				if err != nil {
					return err
				}
				h.Write(data)
				files++
				return nil
			}}
			if _, err := s.Run(problem.Space(), compiled.Evaluator(), opts); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if w := want[key]; files != w.files || got != w.sha256 {
				t.Errorf("%s: %d checkpoint files with digest %s, want %d with %s", key, files, got, w.files, w.sha256)
			}
		}
	}
}
