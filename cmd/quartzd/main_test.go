package main

import (
	"reflect"
	"strings"
	"testing"
)

// -cluster-workers keeps each http(s) base URL, trimmed, in the order
// given; anything else is refused by name before the daemon listens.
func TestWorkerURLs(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string
		bad  string // the URL the error names; "" when the list is good
	}{
		{list: "", want: nil},
		{list: " , ,", want: nil},
		{list: "http://127.0.0.1:8741", want: []string{"http://127.0.0.1:8741"}},
		{list: "https://w1:8741/", want: []string{"https://w1:8741/"}},
		{list: " http://a:1 ,http://b:2, ", want: []string{"http://a:1", "http://b:2"}},
		{list: "http://a:1,,http://b:2,", want: []string{"http://a:1", "http://b:2"}},
		{list: "localhost:8741", bad: "localhost:8741"},
		{list: "127.0.0.1:8741", bad: "127.0.0.1:8741"},
		{list: "http://a:1,ftp://b:2", bad: "ftp://b:2"},
		{list: "http://", bad: "http://"},
		{list: "http:///path", bad: "http:///path"},
		{list: "w1", bad: "w1"},
	} {
		got, err := workerURLs(tc.list)
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), `"`+tc.bad+`"`) {
				t.Errorf("workerURLs(%q) = %q, %v; want an error naming %q", tc.list, got, err, tc.bad)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("workerURLs(%q) = %q, %v; want %q", tc.list, got, err, tc.want)
		}
	}
}
