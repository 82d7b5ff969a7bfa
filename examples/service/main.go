// Service walkthrough: boot the exploration service in-process, then
// drive it through service.Client exactly as a remote consumer would —
// list scenarios, submit an NSGA-II job, stream its progress over SSE,
// fetch the Pareto front, resume the job from its durable checkpoint,
// and query the versioned result store.
//
//	go run ./examples/service
//
// The same flow works against a standalone server (`wsn-serve -addr
// 127.0.0.1:8080`) by pointing service.NewClient at it.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"wsndse/internal/dse"
	"wsndse/internal/service"
)

func main() {
	// 1. Boot the service: a 2-worker job manager behind the HTTP API on a
	// random loopback port (this is everything wsn-serve does), with a
	// checkpoint directory so jobs can be resumed.
	ckptDir, err := os.MkdirTemp("", "wsn-checkpoints-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)
	manager, err := service.New(service.Config{Workers: 2, CheckpointDir: ckptDir})
	if err != nil {
		log.Fatal(err)
	}
	defer manager.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewHandler(manager)}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := service.NewClient("http://" + ln.Addr().String())

	// 2. Discover workloads.
	scenarios, err := client.Scenarios(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registered scenarios:")
	for _, sc := range scenarios {
		fmt.Printf("  %-12s %5.3g configurations  %s\n", sc.Name, sc.SpaceSize, sc.Description)
	}

	// 3. Submit a seeded NSGA-II exploration of the paper's ECG ward. The
	// seed is the determinism key: the same spec returns a bit-identical
	// front no matter what else the service is running.
	spec := service.Spec{
		Scenario:        "ecg-ward",
		Algorithm:       service.AlgoNSGA2,
		Seed:            17,
		Workers:         2,
		NSGA2:           &dse.NSGA2Config{PopulationSize: 32, Generations: 24},
		CheckpointEvery: 8,
	}
	job, err := client.Submit(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsubmitted %s (%s on %s, seed %d)\n", job.ID, spec.Algorithm, spec.Scenario, spec.Seed)

	// 4. Stream progress over SSE until the job terminates.
	final, err := client.Wait(ctx, job.ID, func(e service.Event) {
		switch e.Type {
		case "status":
			fmt.Printf("  [%d] status: %s\n", e.Seq, e.Status)
		case "progress":
			p := e.Progress
			fmt.Printf("  [%d] generation %d/%d: front=%d evaluated=%d (%.3g evals/s)\n",
				e.Seq, p.Step, p.TotalSteps, p.FrontSize, p.Evaluated, p.EvalsPerSec)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if final.Status != service.StatusDone {
		log.Fatalf("job ended %s: %s", final.Status, final.Error)
	}

	// 5. Fetch the front.
	front, err := client.Front(ctx, job.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPareto front: %d points over %d evaluations (%d infeasible)\n",
		len(front.Front), front.Evaluated, front.Infeasible)
	show := front.Front
	if len(show) > 5 {
		show = show[:5]
	}
	for _, p := range show {
		fmt.Printf("  energy %8.4f mW   PRD %6.2f %%   delay %7.1f ms\n",
			p.Objs[0]*1e3, p.Objs[1], p.Objs[2]*1e3)
	}

	// 6. Resume: the job checkpointed every 8 generations into the
	// checkpoint directory; a new job naming it in resume_job replays the
	// identical run from the last checkpoint — this is how a redeployed
	// service picks up killed work.
	resumeSpec := spec
	resumeSpec.ResumeJob = job.ID
	resumedJob, err := client.Submit(ctx, resumeSpec)
	if err != nil {
		log.Fatal(err)
	}
	resumedFinal, err := client.Wait(ctx, resumedJob.ID, nil)
	if err != nil {
		log.Fatal(err)
	}
	resumedFront, err := client.Front(ctx, resumedJob.ID)
	if err != nil {
		log.Fatal(err)
	}
	match := len(resumedFront.Front) == len(front.Front)
	if match {
		for i := range front.Front {
			for j, o := range front.Front[i].Objs {
				if resumedFront.Front[i].Objs[j] != o {
					match = false
				}
			}
		}
	}
	fmt.Printf("\nresumed %s from the generation-%d checkpoint: front bit-identical = %v\n",
		resumedJob.ID, resumedFinal.ResumedFromStep, match)

	// 7. The versioned store keeps every finished front queryable,
	// newest-first and paginated.
	results, err := client.ResultsPage(ctx, service.ResultQuery{
		Scenario: "ecg-ward", Algorithm: service.AlgoNSGA2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result store now holds %d ecg-ward/nsga2 fronts (latest version %d)\n",
		results.Total, results.Items[0].Version)

	// 8. Warm start: a new seed exploring the same ward can seed its
	// initial population from the stored fronts instead of starting from
	// random draws — warm_start "auto" resolves the scenario's content
	// key against the store.
	warmSpec := spec
	warmSpec.Seed, warmSpec.CheckpointEvery = 18, 0
	warmSpec.WarmStart = service.WarmStartAuto
	warmJob, err := client.Submit(ctx, warmSpec)
	if err != nil {
		log.Fatal(err)
	}
	warmFinal, err := client.Wait(ctx, warmJob.ID, nil)
	if err != nil {
		log.Fatal(err)
	}
	if ws := warmFinal.WarmStart; ws != nil {
		fmt.Printf("warm-started %s from store versions %v: %d seed points (exact content match: %v)\n",
			warmJob.ID, ws.Sources, ws.SeedPoints, ws.Exact)
	}
}
