// Multisource: a webhouse over several sources. The paper reduces multiple
// sources to one by virtual merging (Section 3.1); this example keeps them
// separate repositories and shows per-source knowledge, local answering,
// and recovery when one source changes behind the webhouse's back.
package main

import (
	"context"
	"fmt"
	"log"

	"incxml"
	"incxml/internal/workload"
)

func main() {
	ctx := context.Background()
	wh := incxml.NewWebhouse()

	// Two stores with overlapping inventories but different prices.
	euDoc := workload.CatalogDocument([]workload.Product{
		{ID: "eu.canon", Name: 10, Price: 120, Subcat: workload.ValCamera, Pictures: []int64{20}},
		{ID: "eu.nikon", Name: 11, Price: 199, Subcat: workload.ValCamera},
		{ID: "eu.amp", Name: 30, Price: 450, Subcat: workload.ValCDPlayer},
	})
	usDoc := workload.CatalogDocument([]workload.Product{
		{ID: "us.canon", Name: 10, Price: 110, Subcat: workload.ValCamera, Pictures: []int64{20}},
		{ID: "us.leica", Name: 17, Price: 999, Subcat: workload.ValCamera},
	})
	for name, doc := range map[string]incxml.Tree{"eu": euDoc, "us": usDoc} {
		src, err := incxml.NewSource(name, workload.CatalogType(), doc)
		if err != nil {
			log.Fatal(err)
		}
		wh.Register(src)
	}
	fmt.Println("registered sources:", wh.Sources())

	// Explore both with the cheap-products query.
	q1 := workload.Query1(200)
	for _, name := range []string{"eu", "us"} {
		a, err := wh.Explore(ctx, name, q1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: query 1 returned %d nodes\n", name, a.Answer.Size())
	}

	// Ask each source: do you certainly have a camera under $150?
	cheapCam := incxml.MustParseQuery(`catalog
  product
    name
    price {< 150}
    cat {= 1}
      subcat {= 2}
`)
	for _, name := range []string{"eu", "us"} {
		la, err := wh.AnswerLocally(ctx, name, cheapCam)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: camera under $150 — certain %v, fully answerable %v, known answer %d nodes\n",
			name, la.CertainlyNonEmpty, la.Fully, la.Exact.Size())
	}

	// The US store silently reprices the Canon; the next exploration
	// contradicts the accumulated knowledge and the webhouse recovers by
	// reinitializing that repository.
	usRepo, err := wh.Repo("us")
	if err != nil {
		log.Fatal(err)
	}
	repriced := workload.CatalogDocument([]workload.Product{
		{ID: "us.canon", Name: 10, Price: 140, Subcat: workload.ValCamera, Pictures: []int64{20}},
		{ID: "us.leica", Name: 17, Price: 999, Subcat: workload.ValCamera},
	})
	if err := usRepo.Source.Update(repriced); err != nil {
		log.Fatal(err)
	}
	if _, err := wh.Explore(ctx, "us", q1); err != nil {
		log.Fatal(err)
	}
	know, err := wh.Knowledge("us")
	if err != nil {
		log.Fatal(err)
	}
	price := know.DataTree().Find("us.canon.price")
	fmt.Printf("\nafter the silent reprice, the webhouse recovered: us canon price now %s\n", price.Value)

	// The EU knowledge is untouched by the US churn.
	euKnow, err := wh.Knowledge("eu")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eu knowledge still holds %d data nodes\n", euKnow.DataTree().Size())
}
