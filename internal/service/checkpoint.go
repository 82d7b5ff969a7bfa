package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"wsndse/internal/dse"
	"wsndse/internal/service/faultinject"
)

// Every job's checkpoint is a list of dse.Snapshots, one per island, all
// at one step; a plain job's has one. Each island's snapshot lives in its
// own two-slot rotation of checksummed files under Config.CheckpointDir:
//
//	plain job:  <id>.snapshot.json           <id>.snapshot.prev.json
//	island i:   <id>.island<i>.snapshot.json <id>.island<i>.snapshot.prev.json
//
// A slot holds one dse.Snapshot in its SHA-256 envelope
// (dse.EncodeSnapshotFile), written atomically (temp + rename) after the
// previous latest file was rotated into the .prev slot. Recovery after a
// crash — even one that tore a latest file at the filesystem level, or
// landed between two islands' writes — verifies what it reads and falls
// back one checkpoint instead of resuming from garbage or a mixed cut.

// slotPaths returns the latest and previous slot files of island i of
// job id's checkpoint, for a job of the given island count.
func slotPaths(dir, id string, islands, i int) (latest, prev string) {
	base := id + ".snapshot"
	if islands > 1 {
		base = fmt.Sprintf("%s.island%d.snapshot", id, i)
	}
	return filepath.Join(dir, base+".json"), filepath.Join(dir, base+".prev.json")
}

// writeSlot rotates the latest file into the prev slot and writes snap's
// envelope atomically in its place, in the directory New created. The
// faultinject hook sits between the encoded bytes and the disk, so chaos
// tests can tear or fail exactly this write.
func writeSlot(latest, prev string, snap *dse.Snapshot) error {
	data, err := dse.EncodeSnapshotFile(snap)
	if err != nil {
		return err
	}
	if data, err = faultinject.CheckpointWrite(latest, data); err != nil {
		return err
	}
	if err := os.Rename(latest, prev); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	tmp := latest + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, latest)
}

// LoadCheckpoint reads the durable checkpoint job id left in dir, for a
// job of the given island count (1 for a plain job), and returns the
// newest step every island has a verified slot for. Both slots of every
// island are candidates, so a torn latest file or a crash mid-way
// through a wave of island writes costs one checkpoint of progress. The
// error wraps os.ErrNotExist when no slot exists, and
// dse.ErrCorruptSnapshot when slots exist but none verifies.
func LoadCheckpoint(dir, id string, islands int) ([]*dse.Snapshot, error) {
	if islands < 1 {
		return nil, fmt.Errorf("service: load checkpoint for %d islands", islands)
	}
	slots := make([][]*dse.Snapshot, islands)
	var firstErr error
	found := false
	for i := range slots {
		latest, prev := slotPaths(dir, id, islands, i)
		for _, path := range []string{latest, prev} {
			data, err := os.ReadFile(path)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			found = true
			var snap *dse.Snapshot
			if err == nil {
				snap, err = dse.DecodeSnapshotFile(data)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("service: snapshot %s: %w", filepath.Base(path), err)
				}
				continue
			}
			slots[i] = append(slots[i], snap)
		}
	}
	var ckpt []*dse.Snapshot
	for _, cand := range slots[0] {
		if ckpt != nil && cand.Step <= ckpt[0].Step {
			continue
		}
		cut := []*dse.Snapshot{cand}
		for _, own := range slots[1:] {
			if s := atStep(own, cand.Step); s != nil {
				cut = append(cut, s)
			}
		}
		if len(cut) == islands {
			ckpt = cut
		}
	}
	switch {
	case ckpt != nil:
		return ckpt, nil
	case firstErr != nil:
		return nil, firstErr
	case !found:
		return nil, fmt.Errorf("service: no snapshot for %s: %w", id, os.ErrNotExist)
	default:
		return nil, fmt.Errorf("service: job %s: no checkpoint step is covered by all %d islands", id, islands)
	}
}

// atStep returns the first of an island's verified slots taken at step.
func atStep(slots []*dse.Snapshot, step int) *dse.Snapshot {
	for _, s := range slots {
		if s.Step == step {
			return s
		}
	}
	return nil
}

// checkpoint is the one checkpoint writer, fed alike by a plain search's
// dse.Options.Checkpoint hook and the island coordinator's OnCheckpoint.
// It makes ckpt (one snapshot per island, all at one step) the run's
// resume anchor, then writes every island's slot when the manager has a
// checkpoint directory. The durable write is
// best-effort: a full disk (or an injected write failure) costs
// durability, not the run — the in-memory anchor still backs retries —
// so a failure is logged and the run continues.
func (m *Manager) checkpoint(r *run, ckpt []*dse.Snapshot) {
	r.ckpt = ckpt
	if m.cfg.CheckpointDir == "" {
		return
	}
	id := r.job.info.ID
	for i, snap := range ckpt {
		latest, prev := slotPaths(m.cfg.CheckpointDir, id, len(ckpt), i)
		if err := writeSlot(latest, prev, snap); err != nil {
			m.cfg.Logf("service: job %s: checkpoint write %s at step %d failed (run continues): %v",
				id, filepath.Base(latest), snap.Step, err)
		}
	}
}

// resumePoint returns the checkpoint an attempt starts from, for plain
// and island jobs alike: the run's in-memory anchor on a retry, else the
// durable checkpoint resume_job names, else nil (a fresh start). A
// resume_job checkpoint that is missing or fails verification in every
// slot, or that belongs to another algorithm, fails the job with that
// diagnosis — silently restarting from scratch would masquerade as a
// resume while exploring a different trajectory prefix. The trajectory
// from the returned point is deterministic, so the job's final front
// matches an uninterrupted run bit for bit.
func (m *Manager) resumePoint(r *run) ([]*dse.Snapshot, error) {
	spec := &r.job.info.Spec
	if r.ckpt == nil && spec.ResumeJob != "" {
		loaded, err := LoadCheckpoint(m.cfg.CheckpointDir, spec.ResumeJob, max(spec.Islands, 1))
		if err != nil {
			return nil, err
		}
		if algo := loaded[0].Algorithm; algo != spec.Algorithm {
			return nil, fmt.Errorf("service: job %s checkpoint is a %s run, spec wants %s",
				spec.ResumeJob, algo, spec.Algorithm)
		}
		r.ckpt = loaded
	}
	if r.ckpt != nil {
		r.job.mu.Lock()
		r.job.info.ResumedFromStep = r.ckpt[0].Step
		r.job.mu.Unlock()
	}
	return r.ckpt, nil
}
