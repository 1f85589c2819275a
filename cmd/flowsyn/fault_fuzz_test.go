package main

import (
	"fmt"
	"testing"

	"flowsyn"
)

// FuzzParseFault feeds arbitrary strings to the -fault parser. It must never
// panic, and every spec it accepts must re-render as kind:index@time and
// parse back to the same fault.
func FuzzParseFault(f *testing.F) {
	for _, seed := range []string{
		"device:1@130", "channel:4@0", "storage:0@55", "device:+2@-3",
		"device:007@1", "plasma:1@2", "device:1", "device@1", ":@", "",
		"channel:1@2@3", "device:1:2@3", "storage:99999999999999999999@1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := parseFault(spec)
		if err != nil {
			return
		}
		index := got.Channel
		if got.Kind == flowsyn.DeviceFault {
			index = got.Device
		}
		again := fmt.Sprintf("%s:%d@%d", got.Kind, index, got.Time)
		back, err := parseFault(again)
		if err != nil {
			t.Fatalf("parseFault(%q) = %+v, but its rendering %q is rejected: %v", spec, got, again, err)
		}
		if back != got {
			t.Fatalf("parseFault(%q) = %+v, its rendering %q parses to %+v", spec, got, again, back)
		}
	})
}
