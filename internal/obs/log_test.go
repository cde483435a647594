package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func pinnedClock() func() time.Time {
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return t0 }
}

func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.SetClock(pinnedClock())
	l.Component("service").Info("run done", "run", "r000001", "elapsed", 1500*time.Millisecond)

	got := buf.String()
	want := `ts=2026-08-07T12:00:00.000Z level=info component=service msg="run done" run=r000001 elapsed=1.5s` + "\n"
	if got != want {
		t.Errorf("line = %q\nwant  %q", got, want)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("hidden")
	l.Info("hidden")
	l.Warn("shown")
	l.log(LevelError, "shown too", []any{"err", "boom"})
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("filtered levels leaked: %q", out)
	}
	if strings.Count(out, "\n") != 2 {
		t.Errorf("want 2 lines, got %q", out)
	}
}

func TestLoggerQuoting(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.SetClock(pinnedClock())
	l.Info("msg with spaces", "key", `va"l ue`, "empty", "")
	out := buf.String()
	if !strings.Contains(out, `msg="msg with spaces"`) {
		t.Errorf("msg not quoted: %q", out)
	}
	if !strings.Contains(out, `key="va\"l ue"`) {
		t.Errorf("value not quoted: %q", out)
	}
	if !strings.Contains(out, `empty=""`) {
		t.Errorf("empty value not quoted: %q", out)
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Info("into the void", "k", "v") // must not panic
	l.Component("x").Warn("still void")
	if l.Enabled(LevelError) {
		t.Error("nil logger claims enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "INFO": LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should error")
	}
}
