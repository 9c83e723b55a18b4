package main

import (
	"testing"
	"time"
)

func validOpts() options {
	return options{
		httpAddr:   "127.0.0.1:0",
		jobs:       2,
		queue:      8,
		cache:      16,
		maxReqBat:  256,
		sweepCap:   16,
		retryAfter: time.Second,
		linger:     time.Second,
		jobsKeep:   64,
		maxJobs:    8,
		traceKeep:  256,
	}
}

func TestValidateOptions(t *testing.T) {
	if err := validate(validOpts()); err != nil {
		t.Fatalf("baseline options should validate: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"zero jobs", func(o *options) { o.jobs = 0 }},
		{"zero queue", func(o *options) { o.queue = 0 }},
		{"zero cache", func(o *options) { o.cache = 0 }},
		{"zero request batch", func(o *options) { o.maxReqBat = 0 }},
		{"zero sweep points", func(o *options) { o.sweepCap = 0 }},
		{"zero retry after", func(o *options) { o.retryAfter = 0 }},
		{"negative linger", func(o *options) { o.linger = -time.Second }},
		{"zero jobs keep", func(o *options) { o.jobsKeep = 0 }},
		{"zero max jobs", func(o *options) { o.maxJobs = 0 }},
		{"zero trace keep", func(o *options) { o.traceKeep = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOpts()
			tc.mutate(&o)
			if err := validate(o); err == nil {
				t.Fatal("validate accepted an out-of-range option")
			}
		})
	}
}
