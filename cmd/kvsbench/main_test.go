package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	cxl2sim "repro"
)

func TestParseArgsDefaults(t *testing.T) {
	var stderr bytes.Buffer
	o, err := parseArgs(nil, &stderr)
	if err != nil {
		t.Fatalf("default command line rejected: %v\n%s", err, stderr.String())
	}
	if !slices.Equal(o.sections, []string{"table4", "fig8"}) {
		t.Errorf("sections = %q, want table4 then fig8", o.sections)
	}
	if !slices.Equal(o.features, []string{"zswap", "ksm"}) {
		t.Errorf("features = %q, want zswap then ksm", o.features)
	}
	if !slices.Equal(o.workloads, cxl2sim.Workloads()) {
		t.Errorf("workloads = %v, want A–D", o.workloads)
	}
	if o.cfg.Duration != 300*cxl2sim.Millisecond || o.cfg.Seed != cxl2sim.Fig8CalibratedSeed || o.cfg.Zipfian {
		t.Errorf("cfg = %+v, want 300 ms, calibrated seed, uniform keys", o.cfg)
	}
}

func TestParseArgsAccepts(t *testing.T) {
	var stderr bytes.Buffer
	o, err := parseArgs([]string{"-feature", "ksm", "-workloads", " b,c ", "-ms", "30", "-zipfian", "cycles"}, &stderr)
	if err != nil {
		t.Fatalf("rejected: %v\n%s", err, stderr.String())
	}
	w := cxl2sim.Workloads()
	if !slices.Equal(o.sections, []string{"cycles"}) || !slices.Equal(o.features, []string{"ksm"}) ||
		!slices.Equal(o.workloads, w[1:3]) || o.cfg.Duration != 30*cxl2sim.Millisecond || !o.cfg.Zipfian {
		t.Errorf("parsed %+v", o)
	}
}

func TestParseArgsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-feature", "foo"},
		{"-workloads", "X"},
		{"-workloads", "A,"},
		{"-workloads", "A,a"},
		{"-ms", "0"},
		{"-ms", "-5"},
		{"-nope"},
		{"bogus"},
		{"table4", "fig8"},
	} {
		var stderr bytes.Buffer
		if _, err := parseArgs(args, &stderr); err == nil {
			t.Errorf("%q accepted", args)
		}
		if !strings.Contains(stderr.String(), "usage: kvsbench") {
			t.Errorf("%q: no usage on stderr:\n%s", args, stderr.String())
		}
	}
}

func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-feature", "foo", "fig8"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("bad flag wrote to stdout:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"table4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("table4: exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table IV") {
		t.Errorf("table4 output missing its title:\n%s", stdout.String())
	}
}
