// Command hotspot-detect runs the paper's hotspot detection algorithm
// (Definition 1 + the Fig. 6 candidate method) over saved junction
// temperature frames — the offline post-processing path of the original
// HotGauge release.
//
// Usage:
//
//	hotspot-detect [-temp 80] [-mltd 25] [-radius 1.0] [-naive] frame.csv...
//
// Frames are the CSV files written by `hotgauge -out`.
package main

import (
	"flag"
	"fmt"
	"os"

	"hotgauge/internal/core"
	"hotgauge/internal/trace"
)

func main() {
	var (
		tempTh = flag.Float64("temp", 80, "temperature threshold [C]")
		mltdTh = flag.Float64("mltd", 25, "MLTD threshold [C]")
		radius = flag.Float64("radius", 1.0, "MLTD radius [mm]")
		naive  = flag.Bool("naive", false, "use the exhaustive reference detector")
		sev    = flag.Bool("severity", true, "report per-frame peak severity")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hotspot-detect [flags] frame.csv...")
		os.Exit(2)
	}
	def := core.Definition{TempThreshold: *tempTh, MLTDThreshold: *mltdTh, Radius: *radius}
	exit := 0
	for _, path := range flag.Args() {
		if err := detect(path, def, *naive, *sev); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func detect(path string, def core.Definition, naive, sev bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	field, err := trace.ReadField(f)
	if err != nil {
		return err
	}
	analyzer, err := core.NewAnalyzer(field, def)
	if err != nil {
		return err
	}
	var hs []core.Hotspot
	if naive {
		hs = analyzer.DetectNaive(field)
	} else {
		hs = analyzer.Detect(field)
	}
	maxT, _, _ := field.Max()
	maxMLTD, peakSev := analyzer.MaxMLTDSeverity(field)
	fmt.Printf("%s: %dx%d cells, max %.1f C, max MLTD %.1f C, %d hotspot(s)\n",
		path, field.NX, field.NY, maxT, maxMLTD, len(hs))
	for _, h := range hs {
		fmt.Printf("  (%.2f, %.2f) mm: %.1f C, MLTD %.1f C, severity %.2f\n",
			h.X, h.Y, h.Temp, h.MLTD, core.Severity(h.Temp, h.MLTD))
	}
	if sev {
		fmt.Printf("  peak severity: %.3f\n", peakSev)
	}
	return nil
}
