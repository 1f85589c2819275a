package main

import (
	"strings"
	"testing"

	"flowsyn"
)

func TestParseGrid(t *testing.T) {
	rows, cols, err := parseGrid("5x7")
	if err != nil || rows != 5 || cols != 7 {
		t.Errorf("parseGrid(5x7) = %d,%d,%v", rows, cols, err)
	}
	if _, _, err := parseGrid("big"); err == nil {
		t.Error("parseGrid accepted garbage")
	}
}

func TestParseFault(t *testing.T) {
	cases := []struct {
		spec string
		want flowsyn.Fault
	}{
		{"device:1@130", flowsyn.Fault{Kind: flowsyn.DeviceFault, Device: 1, Time: 130}},
		{"channel:5@40", flowsyn.Fault{Kind: flowsyn.ChannelFault, Channel: 5, Time: 40}},
		{"storage:5@40", flowsyn.Fault{Kind: flowsyn.StorageFault, Channel: 5, Time: 40}},
	}
	for _, c := range cases {
		got, err := parseFault(c.spec)
		if err != nil || got != c.want {
			t.Errorf("parseFault(%q) = %+v, %v; want %+v", c.spec, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "device:1", "device@130", "meteor:1@130", "device:x@130", "device:1@now"} {
		if _, err := parseFault(bad); err == nil {
			t.Errorf("parseFault(%q) accepted", bad)
		}
	}
}

func TestGapString(t *testing.T) {
	if s := gapString(-1); s != "n/a" {
		t.Errorf("gapString(-1) = %q", s)
	}
	if s := gapString(0.051); s != "5.10%" {
		t.Errorf("gapString(0.051) = %q", s)
	}
}

func TestCheckBenchmarkFlags(t *testing.T) {
	cases := []struct {
		set  []string
		want string // flag the error must name; "" for no error
	}{
		{nil, ""},
		{[]string{"benchmark", "gantt", "storage", "time-only"}, ""},
		{[]string{"benchmark", "devices"}, "-devices"},
		{[]string{"benchmark", "transport"}, "-transport"},
		{[]string{"benchmark", "grid"}, "-grid"},
		{[]string{"benchmark", "grid", "devices", "transport"}, "-devices"},
	}
	for _, c := range cases {
		set := make(map[string]bool)
		for _, name := range c.set {
			set[name] = true
		}
		err := checkBenchmarkFlags(set)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.set, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want+" ")):
			t.Errorf("%v: error %v, want one naming %s", c.set, err, c.want)
		}
	}
}
