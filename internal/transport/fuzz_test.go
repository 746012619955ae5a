package transport

import (
	"runtime"
	"testing"
	"time"
)

// specCorpus seeds FuzzNew with the specs the tests, the CI smokes, the
// chaos rows and the README use, plus the malformed shapes the
// validation tables reject.
var specCorpus = []string{
	"", "inproc", "contended", "contended:scale=3", "contended:scale=2.5", "contended:scale=50",
	"faulty", "faulty:seed=3", "faulty:drop=0.05,dup=0.02", "faulty:seed=7,drop=0.05,dup=0.02",
	"faulty:corrupt=0.02,truncate=0.01,drop=0.02", "faulty:seed=7,corrupt=0.02,truncate=0.01,drop=0.02",
	"faulty:drop=0.02", "faulty:unreliable=1", "faulty:scale=2", "faulty:delayrate=1,delaymax=20ms",
	"faulty:seed=99,drop=0.2,dup=0.05,delayrate=0.3,delaymax=1ms", "faulty:seed=3,drop=1",
	"warp", "inproc:x=1", "contended:scale", "contended:scale=NaN", "contended:scale=+Inf",
	"faulty:drop=NaN", "faulty:drop=1.5", "faulty:drop=0.1,drop=0.2", "faulty:delaymax=-1ms",
	// Fault schedules are not spec options: every kill= and link= spec is
	// rejected as an unknown option.
	"faulty:drop=0.1,seed=9,kill=1@1s", "faulty:kill=0@1h+1@2h", "faulty:kill=2@10ms,link=0-1@0s",
	"faulty:link=0-1@0s+0-1@80ms:heal", "faulty:link=0-1@0s:flaky=0.25", "faulty:link=1-3@1s:slow=4",
	"faulty:link=0-1@50ms:down",
	"faulty:kill=1@-10ms", "faulty:kill=9@10ms", "faulty:kill=@1s", "faulty:link=0-3@0s",
	"faulty:link=0-1@0s:slow=Inf", "faulty:link=0-1@0s:flaky=NaN", "faulty:link=01@0s",
}

// FuzzNew: any spec string either is rejected with an error or builds a
// transport whose String() is a canonical spec (New parses it back to a
// transport with the same String()); Close is safe to call twice; nothing
// panics and no goroutine outlives Close.
func FuzzNew(f *testing.F) {
	for _, spec := range specCorpus {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		before := runtime.NumGoroutine()
		tr, err := New(spec, 4, 1)
		if err != nil {
			if tr != nil {
				t.Fatalf("New(%q) returned both a transport and %v", spec, err)
			}
			return
		}
		canon := tr.String()
		tr.Close()
		tr.Close()
		again, err := New(canon, 4, 1)
		if err != nil {
			t.Fatalf("New(%q).String() = %q, which New rejects: %v", spec, canon, err)
		}
		if got := again.String(); got != canon {
			t.Errorf("New(%q).String() = %q re-parses to %q", spec, canon, got)
		}
		again.Close()
		// Close joins the delay-line goroutine, but a goroutine that has
		// signalled its exit still counts until it returns, which a loaded
		// host can delay for many scheduling rounds: yield to it until a
		// wall-clock deadline.
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); {
			runtime.Gosched()
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Fatalf("New(%q): %d goroutines before, %d after Close", spec, before, after)
		}
	})
}
